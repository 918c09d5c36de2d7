#!/usr/bin/env python3
"""Gate bench metrics against a checked-in baseline.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [MAX_REL]

The bench schema is selected by the documents' "bench" field:

- serve_latency: compares p99_latency_cycles of every (instances)
  series point and every policy entry (lower is better).
- fig10_speedup: compares the CPU algorithm-optimization speedup of
  every cpu_opt case and HyGCN's vs_cpu speedup of every hygcn case
  (higher is better).
- fig11_energy: compares HyGCN's normalized energy (% of PyG-CPU and
  % of PyG-GPU) of every hygcn case (lower is better — a growing
  percentage is an energy-efficiency drop).
- fig12_energy_breakdown: compares the per-component on-chip energy
  shares (agg/comb/coord % of their sum) of every hygcn case. The
  shares sum to 100, so any shift in the breakdown grows at least
  one gated share.
- serve_scale: compares the simulated-requests-per-wallclock-second
  of every series case (higher is better). Host-dependent, unlike
  the cycle-exact gates: the checked-in baseline is recorded derated
  8x (serve_scale --baseline), so the gate trips on
  order-of-magnitude simulator-throughput regressions, not host
  noise.
- serve_lookahead: compares total joules and p99 latency of every
  routing case — greedy, lookahead, lookahead_affinity — (both lower
  is better), so neither the lookahead wins nor the greedy reference
  may drift.
- spmm_kernels: compares the single-thread vectorized speedup of the
  functional-core kernels over the scalar reference loops per case
  (higher is better). A within-process wallclock ratio, recorded
  derated 2x (spmm_kernels --baseline), so the gate catches the
  kernels regressing toward scalar-grade code, not host noise.

Except for serve_scale and spmm_kernels, all metrics derive from
simulated cycles and the deterministic energy model, both fixed by
the config, so any drift is a real behavior change, not host noise.
MAX_REL (default 0.25, i.e. 25%) is the allowed relative regression;
CI passes 1e-9 for the serve_latency, serve_powercap and
serve_lookahead gates, which makes them exact up to the JSON's
number formatting.

Exit codes: 0 ok, 1 regression, 2 malformed input.
"""

import json
import sys

# (section, key field, metric field, better) per bench id. "lower"
# metrics regress when they grow; "higher" metrics when they shrink.
SCHEMAS = {
    "serve_latency": (
        ("series", "instances", "p99_latency_cycles", "lower"),
        ("policies", "policy", "p99_latency_cycles", "lower"),
    ),
    "fig10_speedup": (
        ("cpu_opt", "case", "speedup", "higher"),
        ("hygcn", "case", "vs_cpu", "higher"),
        # vs_gpu is absent from OoM cells (deterministically, on both
        # sides); entries carrying it in the baseline are gated.
        ("hygcn", "case", "vs_gpu", "higher"),
    ),
    "fig11_energy": (
        # Normalized energy percentages: growth means HyGCN consumes
        # relatively more than the baseline, i.e. lost efficiency.
        ("hygcn", "case", "vs_cpu_pct", "lower"),
        # vs_gpu_pct is absent from OoM cells, like fig10's vs_gpu.
        ("hygcn", "case", "vs_gpu_pct", "lower"),
    ),
    "fig12_energy_breakdown": (
        # On-chip energy *shares* (percent of agg+comb+coord). They
        # sum to 100, so a shift in the breakdown grows at least one
        # share; gating all three "lower" catches any redistribution
        # while staying invariant to uniform energy-cost retuning.
        ("hygcn", "case", "agg_pct", "lower"),
        ("hygcn", "case", "comb_pct", "lower"),
        ("hygcn", "case", "coord_pct", "lower"),
    ),
    "serve_scale": (
        # Simulated requests per wallclock second — the one gated
        # metric that is host-dependent, so its baseline is recorded
        # derated (serve_scale --baseline, 8x headroom) and the gate
        # catches order-of-magnitude event-loop regressions rather
        # than host noise.
        ("series", "case", "sim_rps", "higher"),
    ),
    "spmm_kernels": (
        # Single-thread vectorized speedup of the functional-core
        # kernels over the scalar reference loops. A wallclock ratio
        # measured inside one process, so mostly host-independent;
        # the baseline is still recorded derated 2x (spmm_kernels
        # --baseline) and the gate trips when the kernels fall back
        # toward scalar-grade code, not on host noise. Thread-scaling
        # columns are reported but not gated: CI runners are often
        # single-core.
        ("cases", "case", "speedup_vec", "higher"),
    ),
    "serve_lookahead": (
        # Queue-aware lookahead routing vs greedy energy routing on
        # the current-gen/legacy two-class cluster. Gating joules and
        # p99 "lower" for every case (greedy included) keeps the
        # dominance story honest from both sides: the lookahead cases
        # may not regress toward greedy, and greedy itself may not
        # quietly degrade to make the comparison flattering. The
        # bench binary additionally hard-fails unless each lookahead
        # case dominates greedy on both metrics.
        ("series", "case", "total_joules", "lower"),
        ("series", "case", "p99_latency_cycles", "lower"),
    ),
    "serve_powercap": (
        # Flash crowd under a power cap: tail latency must not grow,
        # the modeled peak draw must not creep toward (the bench
        # itself hard-fails past) the cap, and cap-deferred
        # placements must not multiply.
        ("series", "case", "p99_latency_cycles", "lower"),
        ("series", "case", "peak_cluster_watts", "lower"),
        ("series", "case", "power_deferred_batches", "lower"),
    ),
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)


def index(doc, section, key):
    out = {}
    for entry in doc.get(section, []):
        out[entry[key]] = entry
    return out


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    current = load(argv[1])
    baseline = load(argv[2])
    max_rel = float(argv[3]) if len(argv) > 3 else 0.25

    # Legacy BENCH_serve baselines predate the "bench" field.
    bench = baseline.get("bench", current.get("bench", "serve_latency"))
    if bench not in SCHEMAS:
        print(f"error: unknown bench id {bench!r}", file=sys.stderr)
        return 2

    failures = []
    checked = 0
    sections_checked = set()
    for section, key, metric, better in SCHEMAS[bench]:
        cur = index(current, section, key)
        base = index(baseline, section, key)
        # A section may carry several gated metrics; report its
        # missing entries once.
        if section not in sections_checked:
            sections_checked.add(section)
            missing = sorted(set(base) - set(cur), key=str)
            if missing:
                failures.append(f"{section}: missing entries {missing}")
        for name, base_entry in sorted(base.items(), key=lambda kv: str(kv[0])):
            if name not in cur:
                continue
            if metric not in base_entry:
                continue  # e.g. vs_gpu on an OoM cell
            if metric not in cur[name]:
                failures.append(
                    f"{section}[{name}]: baseline has {metric} but the "
                    f"current run does not"
                )
                continue
            base_val = float(base_entry[metric])
            cur_val = float(cur[name][metric])
            checked += 1
            if base_val <= 0.0:
                continue
            # Positive rel always means "got worse", whatever the
            # metric's direction.
            rel = cur_val / base_val - 1.0
            if better == "higher":
                rel = -rel
            tag = (
                f"{section}[{name}] {metric} {base_val:.6g} -> "
                f"{cur_val:.6g} ({rel:+.3g} relative, worse if > 0)"
            )
            if rel > max_rel:
                failures.append(
                    f"REGRESSION {tag} exceeds the {max_rel:g} relative bound"
                )
            else:
                print(f"ok {tag}")
                if rel < -max_rel:
                    print(
                        f"  note: large improvement; consider refreshing "
                        f"bench/baselines with the new numbers"
                    )

    if checked == 0:
        failures.append("no comparable metric entries found")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
