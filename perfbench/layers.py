"""Per-layer metrics of a traced run, computed from the tracer's groups.

For every traced pass ``k`` the tracer holds four groups: ``("pass", k)``
(inside the timed ops), ``("prep", k)`` (input preparation between ops,
such as drifted epoch models), ``("verify", k)`` (the checks'
``verify_allocation`` calls) and ``"setup"`` (the last set-up).  Each
metric below is a function of those groups; the reported value is its
median over the traced passes.  Layer seconds are self times, so they
add up to ``op.s`` together with the residues.
"""

from __future__ import annotations

import statistics

MIB = 2.0**20


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


#: name -> (unit, better, f(P, R, V, S)) with P, R, V, S the pass, prep,
#: verify and set-up groups.
PER_LAYER = {
    "workload.generate_s": ("s", "lower", lambda P, R, V, S: S["workload.generate.total_s"] + P["workload.generate.total_s"]),
    "workload.trace_s": ("s", "lower", lambda P, R, V, S: S["workload.trace.total_s"] + P["workload.trace.total_s"]),
    "workload.pages": ("count", "higher", lambda P, R, V, S: S["workload.pages"] + P["workload.pages"]),
    "workload.requests": ("count", "higher", lambda P, R, V, S: S["workload.requests"] + P["workload.requests"]),
    "partition.s": ("s", "lower", lambda P, R, V, S: P["partition.self_s"]),
    "partition.pages": ("count", "higher", lambda P, R, V, S: P["partition.pages"]),
    "partition.us_per_page": ("us", "lower", lambda P, R, V, S: _per(P["partition.self_s"], P["partition.pages"], 1e6)),
    "context.build_s": ("s", "lower", lambda P, R, V, S: P["context.build.self_s"]),
    "context.builds": ("count", "lower", lambda P, R, V, S: P["context.builds"]),
    "context.adopted": ("count", "higher", lambda P, R, V, S: P["context.adopted"] + R["context.adopted"]),
    "restore_storage.s": ("s", "lower", lambda P, R, V, S: P["restore_storage.self_s"]),
    "restore_storage.evictions": ("count", "lower", lambda P, R, V, S: P["restore_storage.evictions"]),
    "restore_storage.us_per_eviction": ("us", "lower", lambda P, R, V, S: _per(P["restore_storage.self_s"], P["restore_storage.evictions"], 1e6)),
    "restore_storage.mib_freed": ("MiB", "higher", lambda P, R, V, S: P["restore_storage.bytes_freed"] / MIB),
    "restore_processing.s": ("s", "lower", lambda P, R, V, S: P["restore_processing.self_s"]),
    "restore_processing.switches": ("count", "lower", lambda P, R, V, S: P["restore_processing.switches"]),
    "restore_processing.us_per_switch": ("us", "lower", lambda P, R, V, S: _per(P["restore_processing.self_s"], P["restore_processing.switches"], 1e6)),
    "offload.s": ("s", "lower", lambda P, R, V, S: P["offload.self_s"]),
    "offload.rounds": ("count", "lower", lambda P, R, V, S: P["offload.rounds"]),
    "offload.messages": ("count", "lower", lambda P, R, V, S: P["offload.messages"]),
    "offload.absorbed_req_s": ("req/s", "higher", lambda P, R, V, S: P["offload.absorbed_req_s"]),
    "offload.absorbed_share": ("ratio", "higher", lambda P, R, V, S: _per(P["offload.absorbed_req_s"], P["offload.excess_on_entry_req_s"])),
    "constraints.s": ("s", "lower", lambda P, R, V, S: P["constraints.self_s"]),
    "objective.s": ("s", "lower", lambda P, R, V, S: P["objective.self_s"]),
    "verify.s": ("s", "lower", lambda P, R, V, S: V["verify.total_s"]),
    "replay.s": ("s", "lower", lambda P, R, V, S: P["replay.self_s"]),
    "replay.requests": ("count", "higher", lambda P, R, V, S: P["replay.requests"]),
    "replay.req_per_s": ("req/s", "higher", lambda P, R, V, S: _per(P["replay.requests"], P["replay.self_s"])),
    "lru.s": ("s", "lower", lambda P, R, V, S: P["lru.self_s"]),
    "lru.requests": ("count", "higher", lambda P, R, V, S: P["lru.requests"]),
    "lru.req_per_s": ("req/s", "higher", lambda P, R, V, S: _per(P["lru.requests"], P["lru.self_s"])),
    "lru.hit_ratio": ("ratio", "higher", lambda P, R, V, S: _per(P["lru.hits"], P["lru.hits"] + P["lru.misses"])),
    "lru.evictions": ("count", "lower", lambda P, R, V, S: P["lru.evictions"]),
    "replan.incremental_s": ("s", "lower", lambda P, R, V, S: P["replan.incremental_s"]),
    "replan.audit_s": ("s", "lower", lambda P, R, V, S: P["replan.audit_s"]),
    "replan.residue_s": ("s", "lower", lambda P, R, V, S: P["replan.self_s"]),
    "replan.dirty_pages": ("count", "lower", lambda P, R, V, S: P["replan.dirty_pages"]),
    "replan.rebuilt_servers": ("count", "lower", lambda P, R, V, S: P["replan.rebuilt_servers"]),
    "replan.full_resolves": ("count", "lower", lambda P, R, V, S: P["replan.full_resolves"]),
    "replan.churn_mib": ("MiB", "lower", lambda P, R, V, S: P["replan.churn_bytes"] / MIB),
    "policy.residue_s": ("s", "lower", lambda P, R, V, S: P["policy.self_s"]),
    "op.s": ("s", "lower", lambda P, R, V, S: P["op.total_s"]),
    "op.residue_s": ("s", "lower", lambda P, R, V, S: P["op.self_s"]),
}

#: Layers whose self seconds make up a traced op (the shares in details).
SHARE_LAYERS = (
    "workload.generate", "workload.trace", "context.build", "partition",
    "restore_storage", "restore_processing", "offload", "constraints",
    "objective", "replay", "lru", "replan", "policy", "op",
)


def per_layer_metrics(totals, passes):
    """Median over traced passes of every PER_LAYER metric, plus the
    tracing overhead (traced minus untraced pass seconds), the Eq. 9
    excess at exit and the absolute answers (the end-to-end metrics
    report them as ratios); returns name -> (value, unit)."""
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    setup = totals["setup"]
    values = {name: [] for name in PER_LAYER}
    for k in traced:
        groups = (totals[("pass", k)], totals[("prep", k)], totals[("verify", k)], setup)
        for name, (_, _, fn) in PER_LAYER.items():
            values[name].append(float(fn(*groups)))
    out = {name: (statistics.median(values[name]), PER_LAYER[name][0]) for name in PER_LAYER}
    untraced_s = statistics.median(p["seconds"] for p in passes if not p["traced"])
    traced_s = statistics.median(passes[k]["seconds"] for k in traced)
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    answer = passes[0]["answer"]
    out["constraints.eq9_excess_req_s"] = (answer["eq9_excess_req_s"], "req/s")
    out["answer.objective_D"] = (answer["objective_D"], "eq7")
    out["answer.mean_page_time_s"] = (answer["mean_page_time_s"], "s")
    return out


def layer_shares(totals, passes):
    """Share of the traced op seconds spent in each layer (self time)."""
    shares = {}
    for k in (i for i, p in enumerate(passes) if p["traced"]):
        group = totals[("pass", k)]
        op = group["op.total_s"]
        for layer in SHARE_LAYERS:
            shares.setdefault(layer, []).append(_per(group[f"{layer}.self_s"], op))
    return {layer: round(statistics.median(v), 4) for layer, v in shares.items()}
