"""Runtime-selectable kernel backends for the simulator hot path.

The hottest validated kernels — sorted-set intersection/subtraction
(``mining/setops.py``), span residency/stamping and EMA latency folds
(``sim/memory.py``), and the event-drain inner loop (``sim/engine.py``)
— live behind this interface with two implementations:

``pure``
    The python/numpy reference (:mod:`.pure`).  Always available; the
    compiled backend is differential-tested against it.
``cext``
    The same kernels as C, compiled on demand with the system compiler
    and loaded through cffi (:mod:`.cext`).  Available when cffi and a
    C compiler are present.  It also carries the two compiled hot
    paths: the macro-step booking core (:mod:`.macro`) and the
    task-tree scheduler kernels, each mirroring one Python model of
    record (``PE._book_task`` and the ``TaskTree`` object path).

Selection
---------
Explicit wins over ambient: ``SimConfig.backend`` (per simulation) >
``REPRO_BACKEND`` (per process) > ``auto``.  ``auto`` picks the first
available of ``cext`` > ``pure``.  A requested backend whose dependency
is missing falls back down that same order with a one-time warning —
simulations never fail because a toolchain is absent.  Both backends
produce byte-identical accounted metrics; only wall time differs
(``repro validate`` and the golden registry hold under either).

Selection is process-global: activating a backend rebinds the
``setops`` implementation globals and the kernel set that
``MemorySystem`` instances consult.  Simulations are single-threaded
and activation happens at ``Accelerator`` construction, so a process
mixing configs simply switches before each run.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from ...mining import setops as _setops
from . import pure as _pure
from .compiled import BackendUnavailable, KernelSet
from .engine_loop import drain as engine_drain

__all__ = [
    "BackendUnavailable",
    "KernelSet",
    "activate",
    "active",
    "available_backends",
    "engine_drain",
    "instrument",
    "resolution",
    "resolve_name",
]

#: ``auto`` preference order (fastest first, ``pure`` always last).
AUTO_ORDER = ("cext", "pure")

#: Names accepted by ``SimConfig.backend`` / ``REPRO_BACKEND``.
BACKEND_NAMES = ("auto",) + AUTO_ORDER


def _make_pure() -> KernelSet:
    return KernelSet(
        "pure",
        False,
        _pure.intersect,
        _pure.subtract,
        _pure.intersect_multi,
        _pure.span_resident_stamp,
        _pure.ema_fold,
    )


def _make_cext() -> KernelSet:
    from . import cext

    return cext.make_kernels()


_FACTORIES = {"pure": _make_pure, "cext": _make_cext}

_instances: Dict[str, KernelSet] = {}
_failures: Dict[str, str] = {}
_warned: set = set()


def _get_instance(name: str) -> KernelSet:
    """Build-or-reuse one backend; raises :class:`BackendUnavailable`."""
    inst = _instances.get(name)
    if inst is not None:
        return inst
    failure = _failures.get(name)
    if failure is not None:
        raise BackendUnavailable(failure)
    try:
        inst = _FACTORIES[name]()
    except BackendUnavailable as exc:
        _failures[name] = str(exc)
        raise
    _instances[name] = inst
    return inst


def _install(kernels: KernelSet) -> None:
    global _active
    _active = kernels
    _setops._intersect_impl = kernels.intersect
    _setops._subtract_impl = kernels.subtract
    _setops._intersect_multi_impl = kernels.intersect_multi


_active: KernelSet = _get_instance("pure")
_install(_active)

#: How the most recent :func:`activate` resolved (see :func:`resolution`).
_resolution: Dict[str, Optional[str]] = {
    "requested": "auto",
    "resolved": "pure",
    "fallback": None,
}


def resolve_name(name: Optional[str] = None) -> str:
    """The backend name a request resolves to (before availability)."""
    if name:
        return name
    env = os.environ.get("REPRO_BACKEND", "").strip()
    if env:
        if env not in BACKEND_NAMES:
            _warn_once(
                f"REPRO_BACKEND={env!r} is not a known backend "
                f"{BACKEND_NAMES}; using auto"
            )
            return "auto"
        return env
    return "auto"


def _warn_once(message: str) -> None:
    if message not in _warned:
        _warned.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def activate(name: Optional[str] = None) -> KernelSet:
    """Select and install a backend; returns the active kernel set.

    ``name=None`` defers to ``REPRO_BACKEND`` / ``auto``.  An
    unavailable request falls back down :data:`AUTO_ORDER` with a
    one-time warning.  Idempotent and cheap when the resolution does
    not change.
    """
    global _resolution
    requested = resolve_name(name)
    candidates = AUTO_ORDER if requested == "auto" else (requested,) + AUTO_ORDER
    fallback: Optional[str] = None
    for idx, candidate in enumerate(candidates):
        try:
            kernels = _get_instance(candidate)
        except BackendUnavailable as exc:
            if idx == 0 and requested != "auto":
                fallback = str(exc)
                _warn_once(
                    f"backend {requested!r} unavailable ({exc}); falling back"
                )
            continue
        if kernels is not _active:
            _install(kernels)
        _resolution = {
            "requested": requested,
            "resolved": candidate,
            "fallback": fallback,
        }
        return kernels
    raise AssertionError("pure backend must always be constructible")


def resolution() -> Dict[str, Optional[str]]:
    """How the last :func:`activate` call resolved.

    ``{"requested", "resolved", "fallback"}`` — ``fallback`` is the
    unavailability detail when the explicit request could not be
    honored, else ``None``.  Run manifests and distributed workers
    record this so a silent cext→pure downgrade (the one-time warning
    is easy to lose in worker processes) stays visible after the run.
    """
    return dict(_resolution)


def active() -> KernelSet:
    """The currently installed kernel set."""
    return _active


def available_backends() -> Dict[str, Tuple[bool, str]]:
    """Availability of every backend: name -> (available, detail).

    Probing builds each backend once (compiling the C library on first
    use); failures are cached and reported as the detail string.
    """
    out: Dict[str, Tuple[bool, str]] = {}
    for name in AUTO_ORDER:
        try:
            _get_instance(name)
            out[name] = (True, "ok")
        except BackendUnavailable as exc:
            out[name] = (False, str(exc))
    return out


@contextmanager
def instrument() -> Iterator[Dict[str, list]]:
    """Per-kernel call/time attribution for the active backend.

    Wraps every kernel of the active set with a ``perf_counter`` timer
    for the duration of the context and yields a live mapping
    ``kernel -> [calls, seconds]``.  The wrappers are installed through
    the same path as backend activation, so existing ``MemorySystem``
    instances and the ``setops`` dispatchers all route through them.
    Do not switch backends inside the context.
    """
    kernels = _active
    stats: Dict[str, list] = {k: [0, 0.0] for k in KernelSet.KERNELS}
    originals = {k: getattr(kernels, k) for k in KernelSet.KERNELS}
    perf = time.perf_counter

    def _wrap(record: list, fn):
        def timed(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            record[1] += perf() - t0
            record[0] += 1
            return result

        return timed

    for k, fn in originals.items():
        setattr(kernels, k, _wrap(stats[k], fn))
    _install(kernels)
    try:
        yield stats
    finally:
        for k, fn in originals.items():
            setattr(kernels, k, fn)
        _install(kernels)
