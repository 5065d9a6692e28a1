"""Drive analysis passes over stored traces — no Session, no interpreter.

:func:`analyze_trace` streams one trace file through every requested
pass in a single :class:`~repro.trace.TraceReader` pass (one decode of
each event frame, fanned out to N consumers), and returns a structured
report following the ``RunResult`` conventions: plain JSON-serializable
primitives, identity fields first, one ``analyses`` sub-dict per pass::

    from repro.analysis import analyze_trace
    from repro.trace import TraceStore

    store = TraceStore(".pbs-traces")
    report = analyze_trace(store.path(digest), ["branch-entropy"])
    print(report["analyses"]["branch-entropy"]["overall"])

:func:`analyze_store` resolves digests (or digest prefixes, or metadata
selectors like ``workload="pi", seed=1``) against a
:class:`~repro.trace.TraceStore` and analyzes every match.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..sim.session import FanOut
from ..trace import TraceReader, TraceStore
from .base import AnalysisPass, analysis_names, create_analysis

#: Passes run when the caller names none: every registered zero-config
#: pass, in registration order (``mispredicts`` included — it defaults
#: to the paper's baseline predictors).
def default_passes() -> List[str]:
    return analysis_names()


def resolve_passes(
    passes: Optional[Sequence[Union[str, AnalysisPass]]] = None,
    **options,
) -> List[AnalysisPass]:
    """Turn a mixed list of names and instances into fresh pass objects.

    ``options`` maps a pass name to its constructor kwargs, e.g.
    ``mispredicts={"predictors": ("tournament",)}``.
    """
    if passes is None:
        passes = default_passes()
    resolved: List[AnalysisPass] = []
    for item in passes:
        if isinstance(item, AnalysisPass):
            resolved.append(item)
        else:
            resolved.append(create_analysis(item, **options.get(item, {})))
    return resolved


def analyze_trace(
    trace: Union[str, Path, TraceReader],
    passes: Optional[Sequence[Union[str, AnalysisPass]]] = None,
    **options,
) -> Dict:
    """Stream one stored trace through ``passes``; return the report.

    ``trace`` is a trace file path or an open
    :class:`~repro.trace.TraceReader`.  The event stream is decoded
    exactly once regardless of how many passes consume it.
    """
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    sinks = resolve_passes(passes, **options)
    # The Session fan-out: columnar passes (``mispredicts``) receive each
    # stored frame as one EventBatch, per-event passes its rows as
    # TraceEvents, exploded once per frame and shared.
    events = reader.replay(FanOut(sinks))
    meta = reader.meta
    return {
        "workload": meta.get("workload"),
        "scale": meta.get("scale"),
        "seed": meta.get("seed"),
        "mode": "pbs" if meta.get("pbs_config") else "base",
        "instructions": int(meta.get("instructions") or 0),
        "events": events,
        "analyses": {sink.name: sink.result() for sink in sinks},
    }


def select_digests(
    store: TraceStore,
    digests: Optional[Sequence[str]] = None,
    **selector,
) -> List[str]:
    """Resolve digest prefixes and/or metadata selectors to full digests.

    ``digests`` entries are unique-prefix matched (like ``trace info``);
    ``selector`` keys are matched against the manifest metadata, with
    list/tuple values meaning "any of" — the sweep-selector shape::

        select_digests(store, workload=["pi", "dop"], seed=1, mode="base")

    With neither, every stored trace is selected.
    """
    if digests:
        matched: List[str] = []
        for prefix in digests:
            hits = store.digests(prefix)
            if not hits:
                raise LookupError(f"no trace matches {prefix!r}")
            matched.extend(hits)
        pool = sorted(dict.fromkeys(matched))
    else:
        pool = store.digests()
    if not selector:
        return pool
    selected = []
    for digest in pool:
        entry = store.entry(digest) or {}
        for key, wanted in selector.items():
            have = entry.get(key)
            if isinstance(wanted, (list, tuple, set)):
                if have not in wanted:
                    break
            elif have != wanted:
                break
        else:
            selected.append(digest)
    return selected


def analyze_store(
    store: Union[str, Path, TraceStore],
    digests: Optional[Sequence[str]] = None,
    passes: Optional[Sequence[Union[str, AnalysisPass]]] = None,
    selector: Optional[Dict] = None,
    **options,
) -> List[Dict]:
    """Analyze every selected trace in ``store``; one report per trace.

    Each report carries its ``digest`` so results join back to
    ``trace ls``.  Passes are rebuilt per trace — no state leaks across
    reports.
    """
    if not isinstance(store, TraceStore):
        store = TraceStore(store)
    reports = []
    for digest in select_digests(store, digests, **(selector or {})):
        reader = store.open(digest)
        if reader is None:
            continue  # unreadable (counted as a store miss): skip, like replay does
        report = analyze_trace(reader, passes, **options)
        reports.append({"digest": digest, **report})
    return reports
