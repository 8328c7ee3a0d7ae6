"""The declared environment-knob registry — the one place ``os.environ`` is read.

Every runtime knob the package honours is declared here as an
:class:`EnvKnob` (name, default, description) and read through
:func:`read_knob`.  Centralising the reads keeps configuration enumerable —
an operator, a doc table, or the coming adaptive-control layer can iterate
:data:`KNOBS` instead of grepping for ``environ`` — and reprolint rule
RL009 enforces that no other module under ``src/repro`` touches
``os.environ`` / ``os.getenv``.

Benchmark-harness knobs (``REPRO_BENCH_*``) are declared too so the
inventory is complete, although the ``benchmarks/`` scripts that read them
live outside the linted tree.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from .exceptions import ReproError

__all__ = [
    "EnvKnob",
    "KNOBS",
    "ENGINE_CHUNK_BYTES",
    "SERVICE_DRAIN_TIMEOUT",
    "METRICS_INTERVAL",
    "CONTROL_WAIT_TARGET",
    "CONTROL_BUDGET_CAP",
    "BENCH_QUICK",
    "BENCH_MIN_SPEEDUP",
    "read_knob",
    "read_bool_knob",
    "read_float_knob",
]

#: Byte budget for one engine call's kernel temporaries (see
#: :func:`repro.engine.batch.chunk_byte_budget`).
ENGINE_CHUNK_BYTES = "REPRO_ENGINE_CHUNK_BYTES"

#: Seconds a network swap waits for the previous epoch's batches to drain.
SERVICE_DRAIN_TIMEOUT = "REPRO_SERVICE_DRAIN_TIMEOUT"

#: Default collection interval, in seconds, of a metrics hub.
METRICS_INTERVAL = "REPRO_METRICS_INTERVAL"

#: Seal-wait p99 SLO (seconds) of the adaptive latency-budget controller.
CONTROL_WAIT_TARGET = "REPRO_CONTROL_WAIT_TARGET"

#: Upper bound (seconds) the adaptive latency budget may grow toward.
CONTROL_BUDGET_CAP = "REPRO_CONTROL_BUDGET_CAP"

#: Shrinks benchmark workloads for CI smoke runs.
BENCH_QUICK = "REPRO_BENCH_QUICK"

#: Overrides the calibrated speedup floors of the benchmark gates.
BENCH_MIN_SPEEDUP = "REPRO_BENCH_MIN_SPEEDUP"


@dataclass(frozen=True)
class EnvKnob:
    """One declared environment knob."""

    name: str
    default: str
    description: str


_DECLARED: Tuple[EnvKnob, ...] = (
    EnvKnob(
        name=ENGINE_CHUNK_BYTES,
        default="67108864",
        description=(
            "byte budget for one engine call's (n_stations, chunk) kernel "
            "temporaries; batch entry points tile the point axis to fit it"
        ),
    ),
    EnvKnob(
        name=SERVICE_DRAIN_TIMEOUT,
        default="30",
        description=(
            "seconds QueryService.swap_network waits for the previous "
            "epoch's in-flight batches to drain before raising"
        ),
    ),
    EnvKnob(
        name=METRICS_INTERVAL,
        default="0.25",
        description=(
            "seconds between two metrics-hub collections (each registered "
            "source is snapshotted and fanned out to every sink per tick)"
        ),
    ),
    EnvKnob(
        name=CONTROL_WAIT_TARGET,
        default="0.02",
        description=(
            "seal-wait p99 SLO, in seconds, of the adaptive latency-budget "
            "controller: a budget whose observed wait p99 exceeds it is "
            "multiplicatively shrunk"
        ),
    ),
    EnvKnob(
        name=CONTROL_BUDGET_CAP,
        default="0.02",
        description=(
            "cap, in seconds, the adaptive latency budget grows toward "
            "under pressure (additive increase never exceeds it)"
        ),
    ),
    EnvKnob(
        name=BENCH_QUICK,
        default="",
        description=(
            "truthy ('1'/'true'/'yes'/'on') shrinks benchmark workloads "
            "(CI smoke mode); ''/'0'/'false'/'no'/'off' run at full scale"
        ),
    ),
    EnvKnob(
        name=BENCH_MIN_SPEEDUP,
        default="",
        description=(
            "overrides the calibrated minimum-speedup floors of the "
            "benchmark gates (CI runners are slower than the calibration "
            "hardware)"
        ),
    ),
)

#: Name -> declaration for every knob the package honours.
KNOBS: Dict[str, EnvKnob] = {knob.name: knob for knob in _DECLARED}


def read_knob(name: str, default: str = "") -> str:
    """The raw environment value of a *declared* knob (``default`` if unset).

    Reading an undeclared name raises: a knob that is not in :data:`KNOBS`
    is invisible to every inventory built on it, which is exactly the
    configuration drift this module exists to prevent.
    """
    if name not in KNOBS:
        raise ReproError(
            f"undeclared environment knob {name!r}; declare it in "
            f"repro.env.KNOBS (declared: {sorted(KNOBS)})"
        )
    return os.environ.get(name, default)


#: Spellings that mean "off" for a boolean flag knob (case-insensitive).
FALSE_TOKENS: FrozenSet[str] = frozenset({"", "0", "false", "no", "off"})


def read_bool_knob(name: str) -> bool:
    """A declared *flag* knob as a boolean.

    ``""``, ``"0"``, ``"false"``, ``"no"`` and ``"off"`` (any case,
    surrounding whitespace ignored) are **False**; everything else is True.
    This is the one boolean parser for the whole tree: ``bool(read_knob(
    ...))`` would treat ``REPRO_BENCH_QUICK=0`` as *enabled*, which is
    exactly the quick-mode mis-parse this function exists to prevent.
    """
    return read_knob(name).strip().lower() not in FALSE_TOKENS


def read_float_knob(name: str, default: float) -> float:
    """A declared knob as a float; warn and fall back on unparsable values.

    Mirrors the lenient numeric-knob idiom of
    :func:`repro.engine.batch.chunk_byte_budget`: an unset or empty knob is
    silently ``default``, a malformed or non-positive one warns (so typos
    are visible) and still yields ``default`` — configuration mistakes must
    never take down a serving process.
    """
    raw = read_knob(name)
    if raw.strip():
        try:
            configured = float(raw)
        except ValueError:
            configured = float("nan")
        if configured > 0.0:
            return configured
        warnings.warn(
            f"ignoring invalid {name}={raw!r} (expected a positive number); "
            f"using {default}",
            stacklevel=2,
        )
    return default
