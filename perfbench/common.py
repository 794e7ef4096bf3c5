"""Helpers shared by the workloads: seeded user records, latency summaries,
resident memory and run metadata."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIM_TICK_SECONDS = (8, 12)  # sim clock advance per in-process attempt (~10 s)


def user_records(seed: int, count: int) -> tuple[str, list[str]]:
    """Attribute-records text for ``count`` users and the user keys, both
    derived from ``seed`` only."""
    rng = random.Random(f"users-{seed}")
    lines = ["# user-key  name-id  attribute=value ..."]
    keys = []
    for i in range(count):
        key = f"u{i:05d}.{rng.randrange(16**6):06x}"
        name_id = f"{key}@mycompany.com"
        groups = " ".join(f"group=g{rng.randrange(40)}" for _ in range(rng.randint(1, 3)))
        lines.append(f"{key} {name_id} clientId={rng.randrange(10**6)} uid={name_id} {groups}")
        keys.append(key)
    return "\n".join(lines) + "\n", keys


def summarize(samples_ms: list[float]) -> dict[str, float]:
    """p10, p50, p90 and p99 with the sample count."""
    n = len(samples_ms)
    if n == 0:
        return {"n": 0, "p10": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
    if n == 1:
        only = samples_ms[0]
        return {"n": 1, "p10": only, "p50": only, "p90": only, "p99": only}
    cuts = statistics.quantiles(samples_ms, n=100, method="inclusive")
    return {"n": n, "p10": cuts[9], "p50": cuts[49], "p90": cuts[89], "p99": cuts[98]}


# End-to-end metrics the result line carries, each with a bound in
# BENCHMARK.json; every other figure is printed beside them. On a shared
# host whose speed switches between two levels about 1.6x apart every few
# seconds, a run's throughput and p50s follow the share of it the host spent
# slow and moved by 10-35% between runs of the same code; p10 moved by up
# to 16% when a run had almost no fast stretch. p90 sits in the slow level
# whenever a tenth of the run is slow and held within 12% (5% on most
# workloads). The HTTP ACS round trip also waits on the other browser's
# requests and moved by 10-16% at every percentile, so no acs figure is
# gated. error_rate is 0 on a correct program; it reaches the result line
# as ``failed``.
GATED = {
    "signon_p90_ms": "ms",
    "issue_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def signon_figures(rate, signon, issue, acs, setup_s, rss_mb, error_rate) -> dict:
    """Every end-to-end figure of a run, by name, as (value, unit)."""
    return {
        "signons_per_s": (rate, "1/s"),
        **{
            f"{name}_{stat}_ms": (summary[stat], "ms")
            for name, summary in (("signon", signon), ("issue", issue), ("acs", acs))
            for stat in ("p10", "p50", "p90")
        },
        "error_rate": (error_rate, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def live_state(sp, idp) -> dict[str, int]:
    """Sizes of the engines' server-side stores."""
    return {
        "sp.replay.live": len(sp.replay),
        "sp.sessions.live": len(sp.live_sessions()),
        "idp.sessions.live": len(idp.sessions),
        "idp.request_replay.live": len(idp.request_replay),
    }


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_metadata(seed: int, workload: str) -> dict[str, object]:
    try:
        import cryptography

        crypto_version = cryptography.__version__
    except ImportError:
        crypto_version = "missing"
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown (git failed)"
    meta: dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "nproc": os.cpu_count(),
        "git_rev": rev,
    }
    if workload.startswith("http"):
        meta["network"] = (
            "HTTP traffic crossed the host loopback interface, not a real link"
        )
    return meta
