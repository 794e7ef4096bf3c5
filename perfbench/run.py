#!/usr/bin/env python3
"""samlforge sign-on benchmark.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the toolkit is imported from
``src/`` of that checkout. Workloads (see ``BENCHMARK.json`` for why each
exists):

    post-signon           IdP-initiated POST, signed assertions, in process;
                          90% genuine, 5% replayed, 5% signature-tampered
    sealed-artifact-pair  encrypted assertions, pair-mode artifacts resolved
                          over the in-process back channel
    http-sp-initiated     loopback HTTP against a HarnessService in its own
                          process, 2 keep-alive browser connections

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs half its time untraced and half traced and reports
the per-layer metrics. Every outcome is checked: genuine sign-ons must
yield the session the attribute source predicts, adversarial ones must
fail at the pipeline step their fault pins.

Output: a human-readable table on stdout, then one JSON line with run
metadata, every figure (gated or not: p50s, error_rate) and details (p99s,
sample counts, set-up times, live-state gauges), and as the last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
the metrics ``BENCHMARK.json`` lists. Exits non-zero without a result when
the toolkit sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("post-signon", "sealed-artifact-pair", "http-sp-initiated")


def _import_toolkit() -> None:
    src = ROOT / "src"
    if not (src / "samlforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no samlforge sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import samlforge

    if Path(samlforge.__file__).resolve().parent != (src / "samlforge").resolve():
        raise SystemExit(f"error: imported samlforge from {samlforge.__file__}, not {src}")


def _print_table(figures: dict[str, tuple[float, str]], gated: set[str], info: dict) -> None:
    for name, (value, unit) in figures.items():
        note = "" if name in gated else "  (not gated)"
        print(f"{name:<48} {value:>14.4f} {unit}{note}")
    steady = info.get("steady_state")
    if steady is not None:
        print(f"{'live state':<48} {'steady' if steady['steady'] else 'DRIFTED (see steady_state)':>14}")
    for label, summary in info.get("latency_ms", {}).items():
        print(
            f"  {label:<18} p10 {summary['p10']:.3f} ms  p50 {summary['p50']:.3f} ms  "
            f"p90 {summary['p90']:.3f} ms  p99 {summary['p99']:.3f} ms  n={summary['n']}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_toolkit()
    from common import GATED, run_metadata
    from tracing import LAYER_UNITS

    if args.workload == "http-sp-initiated":
        import http_load as runner
    else:
        import inproc as runner

    if args.trace:
        result = runner.run_traced(args.workload, args.seed, args.seconds)
        # a layer a workload does not reach reports 0
        figures = {name: (result["layer"].get(name, 0.0), unit) for name, unit in LAYER_UNITS.items()}
        metrics = figures
    else:
        result = runner.run_plain(args.workload, args.seed, args.seconds)
        figures = result["figures"]
        metrics = {name: figures[name] for name in GATED}

    info = result["info"]
    if "error_rate" in info:
        figures = {**figures, "error_rate": (info["error_rate"], "ratio")}
    _print_table(figures, set(metrics), info)
    print(
        json.dumps(
            {
                "meta": run_metadata(args.seed, args.workload),
                "figures": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
                "info": info,
            },
            default=str,
        )
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
