"""Lowering and optimization passes.

The progressive lowering of paper Section 3.4, "structured as small,
self-contained passes":

high level          ``convert_linalg_to_memref_stream``
scheduling          ``fuse_fill`` -> ``scalar_replacement`` ->
                    ``unroll_and_jam``
access/execute      ``lower_to_snitch`` (streamed path) or
separation          ``lower_generic_to_loops`` + ``convert_to_riscv``
                    (general-purpose-backend-like path)
backend             ``lower_snitch_stream`` -> ``allocate_registers``
                    -> ``lower_riscv_scf`` -> assembly emission

The four passes that cross into the ``rv`` dialects (``lower_to_snitch``,
``lower_generic_to_pointer_loops``, ``lower_generic_to_loops``,
``convert_to_riscv``) build on ``lowering_kit`` — function shell,
constant pool, body cloner with FMA contraction, loop scope,
``LoweringError`` — and never import one another.

``registry`` gives every pass a canonical kebab-case name and typed
options, so flows are expressible as textual pipeline specs
(``fuse-fill,unroll-and-jam{factor=4},...`` — see
:mod:`repro.ir.pipeline_spec`); ``pipelines`` declares the named flows
used in the evaluation ("ours", the Table 3 ablation prefixes, and the
"clang" / "mlir" baselines) as entries in its spec table.
"""
