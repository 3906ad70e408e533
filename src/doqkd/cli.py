"""Command-line surface.

Subcommands: simulate, analyze, sift, secure, keygen, sweep, optimize.
Exit codes: 0 success, 2 config error, 3 protocol abort, 4 no key extracted.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, DoqkdError, ProtocolAbort, StageError
from .io import read_ttag, write_json, write_ttag
from .session import (CODE_SEED, DEFAULT_I_GRID, DEFAULT_N_GRID,
                      DEFAULT_TAU_GRID, PA_SEED_SALT, align_bob, analyze_security,
                      baseline_from_tags, four_basis_histograms,
                      histogram_summaries, optimize, process_session,
                      run_experiment, security_figures, sweep)
from .sifting import FrameFormat, pack_symbols, qber, run_sifting
from .simulate import SessionTags, SimConfig, paper_default_config, simulate_session
from .timetags import Channel, TagStream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_NO_KEY = 4

_STREAM_FILES = {Channel.T1: "t1.ttag", Channel.F1: "f1.ttag",
                 Channel.T2: "t2.ttag", Channel.F2: "f2.ttag"}


# option -> the SimConfig field it overrides
_OVERRIDES = {"seed": "seed", "duration": "duration_s",
              "bin": "hist_bin_ps", "range": "hist_range_ps"}


def _load_config(args) -> SimConfig:
    cfg = SimConfig.load(args.config) if args.config else paper_default_config()
    # overrides go through one replace, so they are checked together, like
    # loaded values
    return replace(cfg, **{field: getattr(args, opt)
                           for opt, field in _OVERRIDES.items()
                           if getattr(args, opt, None) is not None})


def _parse_format(text: str) -> FrameFormat:
    try:
        n, i, tau = (int(x) for x in text.split(","))
        return FrameFormat(n, i, tau)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad --format '{text}', expected N,I,tau_ps") from e


def _read_streams(path: str | Path, channels, duration_ps: int | None = None
                  ) -> list[TagStream]:
    """Read the given channels' ttag files from a directory, all stretched to
    the longest stream's duration. Each file must hold its named channel."""
    streams = []
    for ch in channels:
        f = Path(path) / _STREAM_FILES[ch]
        s = read_ttag(f, duration_ps)
        if len(s) and s.channel != ch:
            raise ConfigError(f"{f} holds {s.channel.name} records, not {ch.name}")
        s.channel = ch
        streams.append(s)
    dur = max(s.duration_ps for s in streams)
    for s in streams:
        s.duration_ps = dur
    return streams


def _read_session(path: str | Path, cfg: SimConfig) -> SessionTags:
    """A recording of ``cfg``'s session, read at its duration and aligned."""
    return align_bob(SessionTags(*_read_streams(path, _STREAM_FILES, cfg.duration_ps)),
                     cfg.channel.propagation_delay_ps)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make output directory {out}: {e}") from e
    return out


def cmd_simulate(args, out: Path) -> int:
    cfg = _load_config(args)
    tags = simulate_session(cfg, truth=True)
    for ch, name in _STREAM_FILES.items():
        write_ttag(out / name, tags.stream(ch))
    cfg.save(out / "session.json")
    print(f"wrote {tags.total_tags} tags to {out}")
    return EXIT_OK


def cmd_analyze(args, out: Path) -> int:
    cfg = _load_config(args)
    tags = SessionTags(*_read_streams(args.indir, _STREAM_FILES))
    hists = four_basis_histograms([(math.inf, tags)], cfg.hist_bin_ps,
                                  cfg.hist_range_ps, tags.t1.duration_s)
    lines = ["# combo,offset_ps,counts"]
    for name in ("tt", "tf", "ft", "ff"):
        h = getattr(hists, name)
        for c, x in zip(h.counts, h.bin_centers()):
            lines.append(f"{name},{x:.1f},{int(c)}")
    summary = histogram_summaries(hists)
    (out / "histograms.csv").write_text("\n".join(lines) + "\n")
    write_json(out / "analysis.json", summary)
    for name, s in summary.items():
        print(name, s)
    return EXIT_OK


def cmd_sift(args, out: Path) -> int:
    fmt, fmt_b = (_parse_format(f) for f in (args.format, args.format_b or args.format))
    if fmt_b != fmt:
        raise ProtocolAbort(f"frame format mismatch: {fmt} vs {fmt_b}")
    t1, t2 = _read_streams(args.indir, (Channel.T1, Channel.T2))
    result = run_sifting(t1, t2, fmt)
    (out / "key_a.bin").write_bytes(pack_symbols(result.key_a, fmt.n_bits))
    (out / "key_b.bin").write_bytes(pack_symbols(result.key_b, fmt.n_bits))
    (out / "transcript.bin").write_bytes(result.transcript_bytes())
    stats = {"kept_frames": result.kept_frames,
             "discarded_bin_mismatch": result.discarded_bin_mismatch,
             "discarded_multi_event": result.discarded_multi_event,
             "qber_symbol": qber(result.key_a, result.key_b)
             if result.kept_frames else None,
             "n_bits": fmt.n_bits}
    write_json(out / "sift.json", stats)
    print(stats)
    return EXIT_OK


def cmd_secure(args, out: Path) -> int:
    cfg = _load_config(args)
    _, tfcm = analyze_security(_read_session(args.indir, cfg), cfg)
    baseline = baseline_from_tags(_read_session(args.baseline, cfg.baseline_config()),
                                  cfg)
    xi_t, xi_w, chi = security_figures(tfcm, baseline)
    report = {"xi_t": xi_t, "xi_w": xi_w, "chi_ae_bpc": chi,
              "tfcm": tfcm.matrix.tolist(),
              "baseline_tfcm": baseline.tfcm.matrix.tolist()}
    write_json(out / "security.json", report)
    print({k: report[k] for k in ("xi_t", "xi_w", "chi_ae_bpc")})
    return EXIT_OK


def cmd_keygen(args, out: Path) -> int:
    if (args.indir is None) != (args.baseline is None):
        raise ConfigError("keygen takes --in and --baseline together")
    cfg = _load_config(args)
    if args.format:
        cfg = replace(cfg, format=_parse_format(args.format))
    if args.indir is None:
        report = run_experiment(cfg)
    else:
        # the baseline is read while the session decodes; check its files first
        for name in _STREAM_FILES.values():
            if not (Path(args.baseline) / name).is_file():
                raise ConfigError(f"no stream file {Path(args.baseline) / name}")
        bcfg = cfg.baseline_config()
        report = process_session(_read_session(args.indir, cfg), cfg, lambda:
                                 baseline_from_tags(_read_session(args.baseline, bcfg), cfg))
    (out / "secret_key.bin").write_bytes(report.secret_key)
    (out / "raw_key_a.bin").write_bytes(report.raw_key_a)
    (out / "raw_key_b.bin").write_bytes(report.raw_key_b)
    (out / "reconciled_key.bin").write_bytes(report.reconciled_key)
    rec = report.reconciliation
    write_json(out / "key_material.json", {
        "raw_symbols": report.kept_frames,
        "n_bits_per_symbol": cfg.format.n_bits,
        "reconciled_bits": rec.corrected_blocks * rec.block_length,
        "code_rate": rec.code_rate,
        "disclosed_bits": rec.disclosed_bits_total,
        "secret_bits": report.secret_key_bits,
        "seeds": {"session": cfg.seed,
                  "amplification": cfg.seed ^ PA_SEED_SALT,
                  "code": CODE_SEED},
    })
    write_json(out / "report.json", report.to_dict())
    print(f"raw {report.raw_rate_bps:.0f} bps, QBER(sym) "
          f"{report.qber_symbol if report.qber_symbol is not None else float('nan'):.4f}, "
          f"secret {report.secret_rate_bps:.0f} bps "
          f"({report.secret_key_bits} bits)")
    if report.security.no_key or report.secret_key_bits == 0:
        return EXIT_NO_KEY
    return EXIT_OK


def _parse_grid(text: str | None, default: tuple[int, ...]) -> tuple[int, ...]:
    if text is None:
        return default
    try:
        grid = tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise ConfigError(f"bad grid '{text}'") from e
    if min(grid) < 1:
        raise ConfigError(f"bad grid '{text}': values must be >= 1")
    return grid


def cmd_sweep(args, out: Path) -> int:
    cfg = _load_config(args)
    table = sweep(cfg,
                  tau_list=_parse_grid(args.tau_list, DEFAULT_TAU_GRID),
                  i_list=_parse_grid(args.i_list, DEFAULT_I_GRID),
                  n_list=_parse_grid(args.n_list, DEFAULT_N_GRID))
    (out / "sweep.csv").write_text(table.to_csv())
    print(f"wrote {len(table)} rows to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_optimize(args, out: Path) -> int:
    if not 0.0 < args.qber_cap < 0.5:
        raise ConfigError(f"--qber-cap must be in (0, 0.5), got {args.qber_cap}")
    cfg = _load_config(args)
    entries = optimize(cfg, qber_cap=args.qber_cap,
                       n_list=_parse_grid(args.n_list, DEFAULT_N_GRID),
                       tau_list=_parse_grid(args.tau_list, DEFAULT_TAU_GRID),
                       i_list=_parse_grid(args.i_list, DEFAULT_I_GRID))
    write_json(out / "optimize.json", [e.to_dict() for e in entries])
    for e in entries:
        print(e.to_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="doqkd",
                                description="dispersive-optics QKD session toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True, out=True):
        if config:
            sp.add_argument("--config", help="simcfg-v1 JSON (default: bundled scenario)")
            sp.add_argument("--seed", type=int, help="override session seed")
            sp.add_argument("--duration", type=float, help="override duration (s)")
        if out:
            sp.add_argument("--out", help="output directory (default: cwd)")

    sp = sub.add_parser("simulate", help="config -> ttag streams")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("analyze", help="ttag streams -> histogram/FWHM/CAR CSV")
    sp.add_argument("--in", dest="indir", required=True)
    sp.add_argument("--bin", type=int,
                    help="histogram bin width (ps; default: the config's)")
    sp.add_argument("--range", type=int,
                    help="histogram half-range (ps; default: the config's)")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("sift", help="time-basis ttag pair -> keys + transcript")
    sp.add_argument("--in", dest="indir", required=True)
    sp.add_argument("--format", required=True, metavar="N,I,TAU_PS")
    sp.add_argument("--format-b", help="Bob-side format (mismatch aborts)")
    common(sp, config=False)
    sp.set_defaults(func=cmd_sift)

    sp = sub.add_parser("secure", help="four-basis ttag + baseline -> security report")
    sp.add_argument("--in", dest="indir", required=True)
    sp.add_argument("--baseline", required=True, help="baseline session directory")
    common(sp)
    sp.set_defaults(func=cmd_secure)

    sp = sub.add_parser("keygen", help="end-to-end secret key generation")
    sp.add_argument("--format", metavar="N,I,TAU_PS")
    sp.add_argument("--in", dest="indir", help="recorded session (default: simulate)")
    sp.add_argument("--baseline", help="baseline session directory, with --in")
    common(sp)
    sp.set_defaults(func=cmd_keygen)

    sp = sub.add_parser("sweep", help="rate/QBER over the format grid")
    sp.add_argument("--tau-list", help="comma-separated bin widths (ps)")
    sp.add_argument("--i-list", help="comma-separated bins per slot")
    sp.add_argument("--n-list", help="comma-separated bit depths")
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("optimize", help="best format per dimension under a QBER cap")
    sp.add_argument("--qber-cap", type=float, default=0.05)
    sp.add_argument("--tau-list")
    sp.add_argument("--i-list")
    sp.add_argument("--n-list")
    common(sp)
    sp.set_defaults(func=cmd_optimize)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _out_dir(args))
    except DoqkdError as e:
        cause = e.cause if isinstance(e, StageError) else e
        if isinstance(cause, ConfigError):
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        if isinstance(cause, ProtocolAbort):
            print(f"protocol abort: {e}", file=sys.stderr)
            return EXIT_ABORT
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
