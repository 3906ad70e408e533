"""Input generation for the benchmark, run in its own process.

    python3 perfbench/inputs.py --workload recorded --seed 1 --size full --out DIR

Writes everything a workload's operations read into DIR: simcfg-v1
configs, truth-free ttag-v1 recordings (the kind a hardware time-tagger
produces) and ``manifest.json`` with dataset durations and tag counts. The
same seed gives byte-identical files. Running it in a child process keeps
simulation memory out of the measured process's peak RSS.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import common

STREAM_FILES = ("t1.ttag", "f1.ttag", "t2.ttag", "f2.ttag")


def base_config(duration_s: float, block_length: int, seed: int):
    """The bundled paper-default config at the benchmark's session length.

    The back-to-back baseline gets the session's duration, as it has when
    ``doqkd keygen --duration`` overrides the bundled length.
    """
    from doqkd.simulate import paper_default_config
    cfg = paper_default_config(seed=seed)
    cfg.duration_s = duration_s
    cfg.baseline_duration_s = duration_s
    cfg.block_length = block_length
    return cfg


def write_recording(out: Path, cfg) -> dict:
    """Simulate one session and store its four streams without truth."""
    from doqkd.session import align_bob
    from doqkd.simulate import simulate_session
    from doqkd.timetags import TagStream
    from doqkd.io import write_ttag
    out.mkdir(parents=True, exist_ok=True)
    tags = align_bob(simulate_session(cfg), cfg.channel.propagation_delay_ps)
    counts = {}
    for name, s in zip(STREAM_FILES, (tags.t1, tags.f1, tags.t2, tags.f2)):
        write_ttag(out / name, TagStream(s.times, s.channel, s.duration_ps))
        counts[name] = len(s)
    cfg.save(out / "session.json")
    return {"dir": out.name, "duration_s": cfg.duration_s, "seed": cfg.seed,
            "tags": counts, "total_tags": sum(counts.values())}


def generate(workload: str, seed: int, size: str, out: Path) -> dict:
    sz = common.SIZES[size]
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "size": size}
    if workload == "keygen":
        # per-op seeds are derived by the runner; this is the shared config
        cfg = base_config(sz["keygen_s"], sz["block_length"],
                          common.derive_seed("keygen", seed))
        cfg.save(out / "config.json")
        manifest["config"] = "config.json"
        manifest["duration_s"] = cfg.duration_s
    elif workload == "sweep":
        cfg = base_config(sz["sweep_s"], sz["block_length"],
                          common.derive_seed("sweep", seed))
        manifest["session"] = write_recording(out / "session", cfg)
    elif workload == "recorded":
        cfgs = [base_config(sz["recorded_s"], sz["block_length"],
                            common.derive_seed("recorded", seed, j))
                for j in range(sz["recordings"])]
        manifest["sessions"] = [write_recording(out / f"session{j}", cfg)
                                for j, cfg in enumerate(cfgs)]
        manifest["baseline"] = write_recording(out / "baseline",
                                               cfgs[0].baseline_config())
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=common.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=sorted(common.SIZES))
    p.add_argument("--out", required=True)
    args = p.parse_args()
    common.import_doqkd()
    generate(args.workload, args.seed, args.size, Path(args.out))


if __name__ == "__main__":
    main()
