"""The three whole-program contract rules behind ``repro lint --deep``.

``cache-purity``
    A function that writes through :class:`~repro.engine.cache.KernelCache`
    (or the disk tier) is asserting "my result is a pure function of my
    key". Everything it transitively calls must therefore be free of
    ``WRITES_GLOBAL`` / ``RNG_UNSEEDED`` / ``CLOCK`` / ``IO`` -- an
    impure cached kernel turns the cache into a replay of whatever
    happened first. (``SPAWNS_PROCESS`` and ``READS_GLOBAL`` are
    permitted: fan-out is bit-transparent by the qa harness's proof,
    and config reads are stable within a run.)

``pool-safety``
    A callable submitted across the process-pool boundary must be a
    module-top-level function -- lambdas, nested functions and bound
    methods either fail to pickle under the spawn start method or
    silently capture driver-side state. The submitted function must
    also be free of ``RNG_UNSEEDED`` / ``WRITES_GLOBAL``: per-worker
    RNG state and driver-global writes both diverge from the
    single-process answer.

``shm-readonly``
    Arrays attached from the shared-memory operand store are concurrent
    read-only views; the intra-procedural dataflow
    (:mod:`repro.qa.flow.dataflow`) reports every mutation funnel.

``backend-purity``
    The two shape-dispatched entry points of :mod:`repro.stats.backend`
    (``pair_distances``, ``ks_columns``) are what pool tasks, shard
    daemons and the engine call for every DTW pair and KS column. Both
    must exist as module-top-level free functions, and the module may
    hold no nested function or method (they fail to pickle under spawn
    or capture state). Both must be transitively free of
    ``READS_GLOBAL`` / ``WRITES_GLOBAL`` / ``RNG_UNSEEDED`` / ``CLOCK``
    / ``IO``: the kernel a dispatcher picks may depend on the input
    shape only, never on state, and must never show in an output bit.

Every finding embeds the justifying call chain (who calls whom down to
the intrinsic atom) so the report is actionable without re-running the
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qa.flow.effects import (
    CLOCK,
    IO,
    READS_GLOBAL,
    RNG_UNSEEDED,
    WRITES_GLOBAL,
    format_chain,
    sanctioned_mask,
)
from repro.qa.lint import Finding

#: Effects a cached computation may not carry.
FORBIDDEN_CACHED = frozenset({WRITES_GLOBAL, RNG_UNSEEDED, CLOCK, IO})

#: Effects a pool-submitted task may not carry.
POOL_FORBIDDEN = frozenset({RNG_UNSEEDED, WRITES_GLOBAL})

#: The module holding the shape-dispatched DTW / KS entry points.
BACKEND_MODULE = "repro.stats.backend"

#: The dispatchers held to purity, by fully qualified name.
BACKEND_DISPATCHERS = (f"{BACKEND_MODULE}.pair_distances",
                       f"{BACKEND_MODULE}.ks_columns")

#: Effects a dispatcher may not carry.
BACKEND_FORBIDDEN = frozenset(
    {READS_GLOBAL, WRITES_GLOBAL, RNG_UNSEEDED, CLOCK, IO})


@dataclass(frozen=True)
class DeepRule:
    """Catalogue entry for ``--list-rules``."""

    rule_id: str
    description: str


DEEP_RULES = (
    DeepRule(
        "cache-purity",
        "functions memoized through the kernel/disk cache must be "
        "transitively free of global writes, unseeded RNG, clock reads "
        "and IO",
    ),
    DeepRule(
        "pool-safety",
        "pool-submitted callables must be module-top-level and free of "
        "unseeded RNG and global writes",
    ),
    DeepRule(
        "shm-readonly",
        "arrays attached from the shared-memory store must never be "
        "mutated in place",
    ),
    DeepRule(
        "backend-purity",
        "the DTW / KS dispatchers must be module-top-level and "
        "transitively free of global reads and writes, unseeded RNG, "
        "clock reads and IO",
    ),
)


def check_cache_purity(graph, solver):
    """One finding per (cache site, forbidden effect) with the call
    chain proving the effect."""
    findings = []
    for site in graph.cache_sites:
        if sanctioned_mask(site.func):
            # The cache/transport layers legitimately call their own
            # put(); purity of *their* internals is the substrate's
            # runtime proof, not this rule's contract.
            continue
        record = graph.record(site.func)
        if record is None:
            continue
        bad = solver.effects(site.func) & FORBIDDEN_CACHED
        for effect in sorted(bad):
            chain = format_chain(solver.chain(site.func, effect), effect)
            findings.append(Finding(
                path=record.path, line=site.line, col=site.col,
                rule_id="cache-purity",
                message=(
                    f"cached computation {site.func} (via {site.via}) is "
                    f"not pure: {effect} -- {chain}"
                ),
            ))
    return findings


def check_pool_safety(graph, solver):
    """Findings for every pool submission whose target is not a clean
    module-top-level function."""
    findings = []
    for site in graph.pool_sites:
        record = graph.record(site.func)
        if record is None:
            continue

        def flag(message):
            findings.append(Finding(
                path=record.path, line=site.line, col=site.col,
                rule_id="pool-safety", message=message,
            ))

        if site.target_kind == "lambda":
            flag(f"lambda submitted to {site.via}: not importable by "
                 f"spawn workers -- hoist it to a module-top-level "
                 f"function")
        elif site.target_kind == "opaque":
            described = (f" {site.target!r}" if site.target else "")
            flag(f"cannot resolve callable{described} submitted to "
                 f"{site.via}: pool-safety is unprovable -- submit a "
                 f"module-top-level function by name")
        elif site.target_kind == "func":
            target = graph.record(site.target)
            if target is None:
                continue
            if target.nested:
                flag(f"nested function {site.target} submitted to "
                     f"{site.via}: closures are not picklable under "
                     f"spawn -- hoist it to module top level")
            elif target.cls is not None:
                flag(f"bound method {site.target} submitted to "
                     f"{site.via}: it captures the instance -- submit a "
                     f"module-top-level function instead")
            else:
                bad = solver.effects(site.target) & POOL_FORBIDDEN
                for effect in sorted(bad):
                    chain = format_chain(
                        solver.chain(site.target, effect), effect)
                    flag(f"pool task {site.target} carries {effect} -- "
                         f"{chain}")
    return findings


def check_shm_readonly(index):
    """Surface the per-module dataflow verdicts as findings."""
    findings = []
    for summary in index.modules.values():
        for fq, violation in summary.shm_findings:
            findings.append(Finding(
                path=summary.path, line=violation.line, col=violation.col,
                rule_id="shm-readonly",
                message=f"in {fq}: {violation.message}",
            ))
    return findings


def check_backend_purity(index, solver):
    """Findings for a missing or impure dispatcher and for any nested
    function or method in the dispatcher module."""
    findings = []
    for summary in index.modules.values():
        if summary.module != BACKEND_MODULE:
            continue

        def flag(where, message):
            findings.append(Finding(
                path=summary.path, line=where.line if where else 1,
                col=where.col if where else 1,
                rule_id="backend-purity", message=message,
            ))

        for fq, record in sorted(summary.functions.items()):
            if record.nested:
                flag(record, f"nested function {fq} in {BACKEND_MODULE}: "
                             f"dispatch code must be module-top-level so "
                             f"spawn workers can import it by name")
            elif record.cls is not None:
                flag(record, f"method {fq} in {BACKEND_MODULE}: dispatch "
                             f"code must be free functions, not methods "
                             f"capturing an instance")
        for fq in BACKEND_DISPATCHERS:
            record = summary.functions.get(fq)
            if record is None:
                flag(None, f"dispatcher {fq} is missing: it must be a "
                           f"module-top-level function")
                continue
            bad = solver.effects(fq) & BACKEND_FORBIDDEN
            for effect in sorted(bad):
                chain = format_chain(solver.chain(fq, effect), effect)
                flag(record, f"dispatcher {fq} carries {effect} -- {chain}")
    return findings


def check_all(index, graph, solver):
    """Every deep finding for one analyzed project, sorted."""
    findings = []
    findings.extend(check_cache_purity(graph, solver))
    findings.extend(check_pool_safety(graph, solver))
    findings.extend(check_shm_readonly(index))
    findings.extend(check_backend_purity(index, solver))
    return sorted(findings)
