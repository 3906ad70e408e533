"""Paths, run sizes and seed derivation shared by the benchmark scripts.

The benchmark runs against the sources in the checkout it lives in
(``<root>/src``), never against an installed copy of ``doqkd``.
"""
from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# scratch inputs and result files; listed in the root .gitignore
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# single-threaded numerics: the benchmark measures one closed-loop client
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOADS = ("keygen", "sweep", "recorded")

# Session lengths per workload, in seconds of simulated acquisition. "full"
# is what BENCHMARK.json measures; "tiny" is for the smoke test only. No
# session is shorter than 0.1 s: the security estimate needs 1e3
# coincidences per basis combination, and a sweep without it skips the
# secret-rate column altogether. A full keygen session holds five 16384-bit
# blocks: 6-9% of blocks fail to decode, so a 0.2 s session (two blocks)
# ends without a key in about one op in a hundred, and five blocks make
# that below one in 100000. Tiny keygen sessions keep 0.2 s so that every
# op has several of the short blocks, one of which always decodes.
# Recordings differ in how hard they are to decode: with three recordings
# per seed, decoder iterations spread by 24% (IQR over median) across seeds
# and track the recorded op time (correlation 0.8), so a run samples six.
SIZES = {
    "full": {"keygen_s": 0.5, "sweep_s": 0.1, "recorded_s": 0.5,
             "recordings": 6, "block_length": 16384},
    "tiny": {"keygen_s": 0.2, "sweep_s": 0.1, "recorded_s": 0.1,
             "recordings": 2, "block_length": 4096},
}


def pin_threads(env: dict | None = None) -> dict:
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def child_env() -> dict:
    """Environment for the benchmark's own child interpreters."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def import_doqkd():
    """Import ``doqkd`` from this checkout's sources; exit if they are absent."""
    if not (SRC / "doqkd" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no doqkd sources under {SRC}")
    pin_threads()
    sys.path.insert(0, str(SRC))
    import doqkd
    if Path(doqkd.__file__).resolve().parent != SRC / "doqkd":
        raise SystemExit(f"benchmark: imported doqkd from {doqkd.__file__}, "
                         f"not from {SRC}")
    return doqkd


def derive_seed(*parts) -> int:
    """63-bit seed from the workload seed and a purpose label."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
