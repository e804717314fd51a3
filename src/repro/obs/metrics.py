"""Thread-safe labeled metrics: counters and histograms.

A :class:`MetricsRegistry` is a flat namespace of named, optionally
labeled instruments.  Instruments are created on first use
(``registry.counter("requests", kind="compile")``) and shared by every
subsequent lookup with the same name and labels, so call sites never
coordinate.  All mutation goes through a per-instrument lock — the
fix for the pre-PR-10 thread-safety hole where the engine's decode
counts and ``REWRITE_STATS`` were bumped with unlocked ``+=`` under
the thread-per-connection service loop.

The process-wide default registry is :data:`METRICS`.  Long-lived
components that need isolated numbers (one :class:`CompileServer` per
test, say) construct their own registry.

Export formats:

* :meth:`MetricsRegistry.snapshot` — flat ``{series: value}`` dict
  (histograms expand to ``_count``/``_sum``/``_min``/``_max``
  series), suitable for :meth:`MetricsRegistry.delta` arithmetic;
* :meth:`MetricsRegistry.to_json` — nested, typed JSON.
"""

from __future__ import annotations

import threading


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing integer (resettable for tests)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Atomically add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def set(self, value: int) -> None:
        """Reset support (tests, process-lifetime rollovers)."""
        with self._lock:
            self._value = int(value)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max."""

    __slots__ = (
        "name", "labels", "_lock", "bounds", "_bucket_counts",
        "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self, name: str, labels: tuple = (), buckets=DEFAULT_BUCKETS
    ):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self.bounds = tuple(sorted(buckets))
        self._bucket_counts = [0] * len(self.bounds)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[index] += 1

    def snapshot(self) -> dict:
        """Count, sum, min, max, and cumulative bucket counts."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": {
                    str(bound): count
                    for bound, count in zip(
                        self.bounds, self._bucket_counts
                    )
                },
            }


_KINDS = {"counter": Counter, "histogram": Histogram}


class MetricsRegistry:
    """Create-on-first-use registry of named, labeled instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        #: (name, label key) -> instrument; the kind is pinned by the
        #: first use and re-registering under another kind is an error.
        self._instruments: dict[tuple[str, tuple], object] = {}

    def _get(self, kind: str, name: str, labels: dict, **kwargs):
        key = (name, _label_key(labels))
        cls = _KINDS[kind]
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind}"
                )
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        """The counter named ``name`` with ``labels`` (created once)."""
        return self._get("counter", name, labels)

    def histogram(
        self, name: str, buckets=DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._get("histogram", name, labels, buckets=buckets)

    # -- export ---------------------------------------------------------------

    def _items(self) -> list[tuple[str, object]]:
        with self._lock:
            instruments = list(self._instruments.items())
        return [
            (_series_name(name, label_key), instrument)
            for (name, label_key), instrument in sorted(
                instruments, key=lambda item: item[0]
            )
        ]

    def snapshot(self) -> dict[str, float]:
        """Flat ``{series: numeric value}`` view (delta-friendly).

        Histograms expand to ``<series>_count`` / ``_sum`` / ``_min``
        / ``_max`` series so the whole snapshot stays numeric.
        """
        out: dict[str, float] = {}
        for series, instrument in self._items():
            if isinstance(instrument, Histogram):
                data = instrument.snapshot()
                out[f"{series}_count"] = data["count"]
                out[f"{series}_sum"] = data["sum"]
                if data["min"] is not None:
                    out[f"{series}_min"] = data["min"]
                    out[f"{series}_max"] = data["max"]
            else:
                out[series] = instrument.value
        return out

    def delta(self, since: dict[str, float]) -> dict[str, float]:
        """Per-series increments relative to an earlier snapshot.

        Series born after ``since`` count from zero; min/max series
        are carried as-is (a delta of extrema is meaningless).
        """
        now = self.snapshot()
        return {
            series: (
                value
                if series.endswith(("_min", "_max"))
                else value - since.get(series, 0)
            )
            for series, value in now.items()
        }

    def to_json(self) -> dict:
        """Nested, typed export (the ``stats``/results-file format)."""
        out: dict = {"counters": {}, "histograms": {}}
        for series, instrument in self._items():
            if isinstance(instrument, Counter):
                out["counters"][series] = instrument.value
            else:
                out["histograms"][series] = instrument.snapshot()
        return out

    def reset(self) -> None:
        """Zero every counter and drop histograms (tests)."""
        with self._lock:
            instruments = list(self._instruments.items())
            for key, instrument in instruments:
                if isinstance(instrument, Counter):
                    instrument.set(0)
                else:
                    del self._instruments[key]


#: The process-wide default registry.  Module-level telemetry (the
#: engine's decode counts, ``REWRITE_STATS``) lives here; components that
#: need isolated numbers construct their own ``MetricsRegistry``.
METRICS = MetricsRegistry()


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
]
