"""Built-in target machine descriptions.

Four targets, as in the paper: TOYP (the tutorial machine of figures 1-3),
the MIPS R2000, the Motorola 88000 and the Intel i860 (dual issue,
explicitly advanced floating point pipelines, packing classes).

:func:`load_target` builds a :class:`TargetMachine` by name.  Building a
target means lexing, parsing and semantically checking its Maril
description and then running the code generator generator over it — a
few hundred milliseconds of pure-Python work that the evaluation harness
used to repeat for every compile.  Results are therefore memoized
per process: repeated ``load_target("r2000")`` calls return the *same*
:class:`TargetMachine` instance, which is safe because compilation never
mutates a target (enforced by ``tests/test_target_cache.py``).  Pass
``fresh=True`` to bypass the cache and get a private instance — useful
when an experiment wants to monkeypatch a description in place.

On top of the in-process memo sits the persistent artifact cache
(:mod:`repro.cache`): the built target is pickled under a content key
derived from the variant name and its Maril source text, so a *new
process* unpickles ~50 KB instead of re-running the CGG.  ``fresh=True``
bypasses and invalidates both layers — the disk entry is deleted and the
private instance is written nowhere.
"""

from __future__ import annotations

from typing import Callable

from repro.cache import get_cache
from repro.errors import MarionError
from repro.machine.target import TargetMachine
from repro import obs

TARGET_NAMES = ("toyp", "r2000", "m88000", "i860")

#: name -> memoized TargetMachine (process-local)
_CACHE: dict[str, TargetMachine] = {}

#: name -> how many times the Maril description was actually CGG-built
_BUILD_COUNTS: dict[str, int] = {}


def _build(name: str) -> TargetMachine:
    if name == "toyp":
        from repro.targets.toyp import build_toyp

        builder = build_toyp
    elif name == "r2000":
        from repro.targets.r2000 import build_r2000

        builder = build_r2000
    elif name == "m88000":
        from repro.targets.m88000 import build_m88000

        builder = build_m88000
    elif name == "i860":
        from repro.targets.i860 import build_i860

        builder = build_i860
    else:
        raise MarionError(
            f"unknown target {name!r}; known: {', '.join(TARGET_NAMES)}"
        )
    _BUILD_COUNTS[name] = _BUILD_COUNTS.get(name, 0) + 1
    with obs.span(f"target_build.{name}"):
        return builder()


def _target_key(variant: str, source: str) -> str:
    """Disk-cache key for a built target: variant name + Maril source
    (the code-version salt rides inside :meth:`ArtifactCache.key`)."""
    return get_cache().key("target", variant, source)


def _disk_load(variant: str, source: str) -> TargetMachine | None:
    """The pickled target for (variant, source), or None on a miss."""
    store = get_cache()
    if not store.enabled:
        return None
    key = _target_key(variant, source)
    target = store.get("target", key)
    if target is None:
        return None
    if not isinstance(target, TargetMachine) or target.name != variant:
        # a key collision or foreign artifact — rebuild cleanly
        store.invalidate("target", key)
        return None
    obs.count("target_cache.disk_hit")
    target.content_key = key
    return target


def _disk_store(variant: str, source: str, target: TargetMachine) -> None:
    store = get_cache()
    if not store.enabled:
        return
    key = _target_key(variant, source)
    target.content_key = key
    store.put("target", key, target)


def load_cached_variant(
    variant: str, source: str, builder: Callable[[], TargetMachine]
) -> TargetMachine:
    """Build-or-load a *named variant* through the disk layer only.

    For targets outside the :data:`TARGET_NAMES` table (the ablation's
    i860 EAP-off variant): no in-process memo here — callers keep their
    own — but the CGG build is skipped when the disk artifact exists.
    """
    target = _disk_load(variant, source)
    if target is not None:
        return target
    target = builder()
    _disk_store(variant, source, target)
    return target


def load_target(name: str, fresh: bool = False) -> TargetMachine:
    """Build the named target from its Maril description.

    Cached per process: the description is parsed and CGG-built at most
    once per name, and the build is published to the persistent artifact
    cache so later *processes* skip the CGG too.  ``fresh=True``
    bypasses both cache layers and invalidates the disk entry (the
    returned instance is private: it is stored nowhere, and any cached
    in-process instance is left alone).
    """
    if fresh:
        obs.count("target_cache.bypass")
        store = get_cache()
        if store.enabled and name in TARGET_NAMES:
            store.invalidate("target", _target_key(name, maril_source(name)))
        return _build(name)
    cached = _CACHE.get(name)
    if cached is not None:
        obs.count("target_cache.hit")
        return cached
    obs.count("target_cache.miss")
    target = None
    source = maril_source(name) if name in TARGET_NAMES else None
    if source is not None:
        target = _disk_load(name, source)
    if target is None:
        target = _build(name)
        if source is not None:
            _disk_store(name, source, target)
    _CACHE[name] = target
    return target


def clear_target_cache() -> None:
    """Forget every cached target (build counts are kept)."""
    _CACHE.clear()


def target_build_count(name: str) -> int:
    """How many times ``name`` has been CGG-built in this process."""
    return _BUILD_COUNTS.get(name, 0)


def maril_source(name: str) -> str:
    """The Maril description text for a built-in target (for Table 1)."""
    if name == "toyp":
        from repro.targets.toyp import TOYP_MARIL

        return TOYP_MARIL
    if name == "r2000":
        from repro.targets.r2000 import R2000_MARIL

        return R2000_MARIL
    if name == "m88000":
        from repro.targets.m88000 import M88000_MARIL

        return M88000_MARIL
    if name == "i860":
        from repro.targets.i860 import I860_MARIL

        return I860_MARIL
    raise MarionError(f"unknown target {name!r}")
