"""Pure helpers: percentiles, spreads, golden comparison, failure counts."""

from __future__ import annotations

import math
import statistics

#: Samples a reported percentile must leave above it: report the
#: highest percentile that has at least ten samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_supported(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def median(values) -> float:
    return statistics.median(values)


def bests(repeats: dict) -> list[float]:
    """Each unit's fastest repeat, for ``{unit: [seconds, ...]}``.

    Load from other tenants of a shared host comes and goes in bursts of
    about a second and only ever adds time, so a unit that is short
    against those bursts and repeated a few times has an unloaded repeat;
    its fastest repeat is a steadier estimate than any one pass.
    """
    return [min(times) for times in repeats.values()]


def best_total(repeats: dict) -> float:
    """Sum of each unit's fastest repeat: the unloaded time of one pass."""
    return sum(bests(repeats))


def stats_diff(expected: dict, actual: dict) -> list[str]:
    """Field names whose values differ between two ``SimStats.to_dict()``."""
    keys = sorted(set(expected) | set(actual))
    return [k for k in keys if expected.get(k, _MISSING) != actual.get(k, _MISSING)]


_MISSING = object()


class Failures:
    """Counts operations checked against the golden outputs.

    Every check is one attempted operation; a wrong output or an
    exception is one failure.  The first few messages are kept for the
    run's log.
    """

    KEEP = 5

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(what)
        return ok

    def error(self, what: str, exc: BaseException) -> None:
        """An operation that raised instead of producing an output."""
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < self.KEEP:
            self.messages.append(message)

    def check_stats(self, golden: dict, key: str, actual: dict) -> bool:
        expected = golden.get(key)
        if expected is None:
            return self.check(False, f"{key}: no golden output")
        diff = stats_diff(expected, actual)
        return self.check(not diff, f"{key}: differs in {', '.join(diff)}")

    @property
    def fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
