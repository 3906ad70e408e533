import dataclasses
import json
import math
import shutil

import numpy as np
import pytest

from doqkd.cli import main
from doqkd.io import TTAG_DTYPE, canonical_json
from doqkd.session import run_experiment
from doqkd.sifting import FrameFormat
from doqkd.simulate import SimConfig, paper_default_config


@pytest.fixture(scope="module")
def cli_cfg(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    cfg = paper_default_config()
    cfg.duration_s = 0.12
    cfg.baseline_duration_s = 0.12
    cfg.block_length = 4096
    p = d / "cfg.json"
    cfg.save(p)
    return str(p)


@pytest.fixture(scope="module")
def sim_dir(cli_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--config", cli_cfg, "--out", str(out)]) == 0
    return out


def test_simulate_writes_streams(sim_dir):
    for name in ("t1", "f1", "t2", "f2"):
        assert (sim_dir / f"{name}.ttag").exists()
        assert (sim_dir / f"{name}.ttag.truth").exists()
    assert (sim_dir / "session.json").exists()


def test_analyze(sim_dir, tmp_path):
    rc = main(["analyze", "--in", str(sim_dir), "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "analysis.json").read_text())
    assert summary["tt"]["fwhm_ps"] == pytest.approx(150.0, rel=0.25)
    csv = (tmp_path / "histograms.csv").read_text().splitlines()
    assert csv[0].startswith("#")
    assert any(line.startswith("ff,") for line in csv)


@pytest.mark.parametrize("option, value", [
    ("--bin", "-5"), ("--bin", "0"), ("--range", "0"), ("--range", "-30"),
    # 2 * 7 ps is not a whole number of 30 ps bins, nor 7680 ps of 7 ps bins
    ("--range", "7"), ("--bin", "7"),
    # 2.56e17 bins of 30 ps: counts no machine can allocate
    ("--range", "3840000000000000000"),
])
def test_analyze_bad_bins_exit_code(sim_dir, tmp_path, monkeypatch, option,
                                    value):
    # rejected before any stream file is read
    monkeypatch.setattr("doqkd.cli.read_ttag", None)
    assert main(["analyze", "--in", str(sim_dir), option, value,
                 "--out", str(tmp_path)]) == 2


def test_sift_and_exit_codes(sim_dir, tmp_path):
    rc = main(["sift", "--in", str(sim_dir), "--format", "4,3,160",
               "--out", str(tmp_path)])
    assert rc == 0
    stats = json.loads((tmp_path / "sift.json").read_text())
    assert stats["kept_frames"] > 0
    assert (tmp_path / "key_a.bin").exists()
    assert (tmp_path / "transcript.bin").exists()
    # format mismatch -> protocol abort exit code, before any file is written
    aborted = tmp_path / "aborted"
    rc = main(["sift", "--in", str(sim_dir), "--format", "4,3,160",
               "--format-b", "4,3,200", "--out", str(aborted)])
    assert rc == 3
    assert not any(aborted.iterdir())


@pytest.fixture(scope="module")
def ref_dir(cli_cfg, tmp_path_factory):
    """A recording of ``cli_cfg``'s baseline session."""
    out = tmp_path_factory.mktemp("ref")
    SimConfig.load(cli_cfg).baseline_config().save(out / "bcfg.json")
    assert main(["simulate", "--config", str(out / "bcfg.json"),
                 "--out", str(out)]) == 0
    return out


def test_secure(cli_cfg, sim_dir, ref_dir, tmp_path):
    rc = main(["secure", "--in", str(sim_dir), "--baseline", str(ref_dir),
               "--config", cli_cfg, "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "security.json").read_text())
    assert {"xi_t", "xi_w", "chi_ae_bpc", "tfcm"} <= set(rep)


def check_recorded_matches_simulated(cfg, tmp_path):
    """On simulated recordings of ``cfg`` and of its baseline session, CLI
    ``secure`` gives run_experiment's chi(A;E), and ``keygen --in`` its key
    and, timing aside, its report."""
    dirs = []
    for label, c in (("run", cfg), ("ref", cfg.baseline_config())):
        d = tmp_path / label
        d.mkdir()
        c.save(d / "cfg.json")
        assert main(["simulate", "--config", str(d / "cfg.json"),
                     "--out", str(d)]) == 0
        dirs.append(str(d))
    recorded = ["--in", dirs[0], "--baseline", dirs[1],
                "--config", str(tmp_path / "run" / "cfg.json")]
    sec, key = tmp_path / "sec", tmp_path / "key"
    assert main(["secure", *recorded, "--out", str(sec)]) == 0
    assert main(["keygen", *recorded, "--out", str(key)]) == 0
    rep = run_experiment(cfg)
    chi = json.loads((sec / "security.json").read_text())["chi_ae_bpc"]
    assert chi == rep.security.chi_ae_bpc
    assert rep.secret_key
    assert (key / "secret_key.bin").read_bytes() == rep.secret_key
    written = json.loads((key / "report.json").read_text())
    del written["wall_clock_s"]
    assert canonical_json(written).encode() == rep.canonical_bytes()


def test_secure_chi_matches_keygen(tmp_path):
    # the baseline recording is split as run_experiment splits its own
    # baseline session, so both report the same chi(A;E)
    cfg = paper_default_config(seed=5)
    cfg.duration_s = cfg.baseline_duration_s = 0.2
    cfg.block_length = 2048
    check_recorded_matches_simulated(cfg, tmp_path)


def test_secure_removes_propagation_delay(tmp_path):
    # Bob's recordings carry the fiber delay; secure and keygen --in align
    # them as run_experiment does before any histogram is taken
    cfg = paper_default_config(seed=13, propagation_delay_ps=5 * 7680 + 123)
    cfg.duration_s = cfg.baseline_duration_s = 0.2
    cfg.block_length = 2048
    check_recorded_matches_simulated(cfg, tmp_path)


@pytest.fixture
def nothing_read(monkeypatch):
    """Fail the test if any session is simulated or any stream file read."""
    def called(*args, **kwargs):
        raise AssertionError("called")

    for name in ("doqkd.session.simulate_session", "doqkd.cli.simulate_session",
                 "doqkd.cli.read_ttag"):
        monkeypatch.setattr(name, called)


@pytest.mark.parametrize("command", [
    ["simulate"], ["analyze", "--in", "run"], ["sift", "--in", "run", "--format", "4,3,160"],
    ["secure", "--in", "run", "--baseline", "ref"], ["keygen"],
    ["keygen", "--in", "run", "--baseline", "ref"], ["sweep"], ["optimize"],
], ids=" ".join)
def test_out_is_a_file_exit_code(sim_dir, tmp_path, nothing_read, command):
    (tmp_path / "afile").write_text("")
    command = [str(sim_dir) if arg in ("run", "ref") else arg for arg in command]
    assert main([*command, "--out", str(tmp_path / "afile")]) == 2


@pytest.mark.parametrize("option", ["--in", "--baseline"])
def test_keygen_in_and_baseline_pair_exit_code(tmp_path, nothing_read, option):
    assert main(["keygen", option, str(tmp_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("missing_from", ["run", "ref", "ref-directory"])
def test_keygen_in_missing_stream_exit_code(cli_cfg, sim_dir, ref_dir, tmp_path,
                                            monkeypatch, missing_from):
    dirs = {"run": tmp_path / "run", "ref": tmp_path / "ref"}
    shutil.copytree(sim_dir, dirs["run"])
    shutil.copytree(ref_dir, dirs["ref"])
    stream = dirs[missing_from.split("-")[0]] / "t2.ttag"
    stream.unlink()
    if missing_from.endswith("directory"):
        stream.mkdir()

    def session_work(*args):
        raise AssertionError("the session was processed before its inputs were checked")

    monkeypatch.setattr("doqkd.cli.process_session", session_work)
    assert main(["keygen", "--in", str(dirs["run"]), "--baseline", str(dirs["ref"]),
                 "--config", cli_cfg, "--out", str(tmp_path)]) == 2


def test_keygen_in_recording_longer_than_config_exit_code(sim_dir, ref_dir,
                                                          tmp_path):
    # the recording runs 0.12 s; read at 0.06 s, half its tags would lie
    # beyond the session's end and double its rates
    cfg = SimConfig.load(sim_dir / "session.json")
    cfg.duration_s = cfg.baseline_duration_s = 0.06
    cfg.save(tmp_path / "short.json")
    assert main(["keygen", "--in", str(sim_dir), "--baseline", str(ref_dir),
                 "--config", str(tmp_path / "short.json"),
                 "--out", str(tmp_path)]) == 2


def test_keygen(cli_cfg, tmp_path):
    rc = main(["keygen", "--config", cli_cfg, "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["secret_key_bits"] > 0
    key = (tmp_path / "secret_key.bin").read_bytes()
    assert len(key) == (rep["secret_key_bits"] + 7) // 8
    # key-material files and their sidecar
    side = json.loads((tmp_path / "key_material.json").read_text())
    n_bits = side["n_bits_per_symbol"]
    raw = (tmp_path / "raw_key_a.bin").read_bytes()
    assert len(raw) == (side["raw_symbols"] * n_bits + 7) // 8
    rec = (tmp_path / "reconciled_key.bin").read_bytes()
    assert len(rec) == (side["reconciled_bits"] + 7) // 8
    assert side["secret_bits"] == rep["secret_key_bits"]
    assert side["disclosed_bits"] > 0


def test_keygen_format_option(tmp_path):
    # the golden format_5_2_120 session, its format given on the command line
    cfg = paper_default_config(seed=12)
    cfg.duration_s = cfg.baseline_duration_s = 0.2
    cfg.block_length = 2048
    cfg.save(tmp_path / "cfg.json")
    assert main(["keygen", "--config", str(tmp_path / "cfg.json"),
                 "--format", "5,2,120", "--out", str(tmp_path)]) == 0
    rep = run_experiment(dataclasses.replace(cfg, format=FrameFormat(5, 2, 120)))
    for name in ("secret_key", "raw_key_a", "raw_key_b"):
        assert (tmp_path / f"{name}.bin").read_bytes() == getattr(rep, name), name
    side = json.loads((tmp_path / "key_material.json").read_text())
    assert side["n_bits_per_symbol"] == 5
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["format"] == {"n_bits": 5, "bins_per_slot": 2,
                                          "bin_width_ps": 120}


def test_keygen_no_key_exit_code(tmp_path):
    cfg = paper_default_config()
    cfg.duration_s = 0.12
    cfg.baseline_duration_s = 0.12
    cfg.block_length = 4096
    # drown the receiver in injected noise: the balance goes negative
    cfg.channel = dataclasses.replace(cfg.channel, eve_time_sigma_ps=400.0,
                                      eve_freq_sigma_rad_s=2e11)
    p = tmp_path / "evil.json"
    cfg.save(p)
    rc = main(["keygen", "--config", str(p), "--out", str(tmp_path)])
    assert rc == 4


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["keygen", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["keygen", "--config", str(tmp_path / "missing.json")]) == 2


def test_malformed_input_exit_codes(tmp_path):
    # a stream file with a negative timestamp
    rec = np.zeros(2, TTAG_DTYPE)
    rec["timestamp"] = [-5, 10]
    for name in ("t1", "f1", "t2", "f2"):
        (tmp_path / f"{name}.ttag").write_bytes(rec.tobytes())
    assert main(["analyze", "--in", str(tmp_path), "--out", str(tmp_path)]) == 2
    # a non-integer seed in the config file
    d = paper_default_config().to_dict()
    d["duration_s"] = 0.001
    for seed in ("not-a-seed", 1.5, True):
        d["seed"] = seed
        bad = tmp_path / "bad_seed.json"
        bad.write_text(json.dumps(d))
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    # stream files that do not hold their named channel: a t1.ttag of F1
    # records, and a t2.ttag with half its records coded F1
    rec = np.zeros(4, TTAG_DTYPE)
    rec["timestamp"] = [100, 2000, 30000, 400000]
    for bad_name, bad_codes in (("t1", [1, 1, 1, 1]), ("t2", [2, 1, 2, 1])):
        run = tmp_path / f"bad_{bad_name}"
        run.mkdir()
        for name, code in (("t1", 0), ("t2", 2)):
            rec["channel"] = bad_codes if name == bad_name else code
            (run / f"{name}.ttag").write_bytes(rec.tobytes())
        assert main(["sift", "--in", str(run), "--format", "4,3,160",
                     "--out", str(run)]) == 2
    # a stream path that is a directory
    run = tmp_path / "dir_t1"
    (run / "t1.ttag").mkdir(parents=True)
    assert main(["analyze", "--in", str(run), "--out", str(run)]) == 2


def test_sweep_and_optimize(cli_cfg, tmp_path):
    rc = main(["sweep", "--config", cli_cfg, "--tau-list", "120,160",
               "--i-list", "3", "--n-list", "4", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    rc = main(["optimize", "--config", cli_cfg, "--tau-list", "120,160",
               "--i-list", "3", "--n-list", "4", "--qber-cap", "0.4",
               "--out", str(tmp_path)])
    assert rc == 0
    entries = json.loads((tmp_path / "optimize.json").read_text())
    assert entries[0]["n_bits"] == 4


@pytest.mark.parametrize("command, option, value", [
    ("sweep", "--tau-list", "0"),
    ("sweep", "--i-list", "3,-1"),
    ("optimize", "--n-list", "0"),
    ("optimize", "--qber-cap", "0.7"),
    ("optimize", "--qber-cap", "0"),
    # frames of 2**70 slots are wider than int64
    ("sweep", "--n-list", "70"),
    ("optimize", "--n-list", "4,70"),
    # the information estimate's 4**11-cell joint table is over 8 MiB
    ("sweep", "--n-list", "11"),
    # bin numbers above 255 do not fit sift-v1's u8 field
    ("sweep", "--i-list", "3,257"),
    ("optimize", "--i-list", "300"),
    # an empty grid is an error, not the default grid
    ("sweep", "--tau-list", ""),
    ("optimize", "--n-list", ""),
])
def test_bad_grid_or_cap_exit_code(tmp_path, monkeypatch, command, option, value):
    cfg = paper_default_config()
    cfg.duration_s = cfg.baseline_duration_s = 0.01
    cfg.save(tmp_path / "cfg.json")
    # rejected before any session is simulated
    monkeypatch.setattr("doqkd.session.simulate_session", None)
    assert main([command, "--config", str(tmp_path / "cfg.json"),
                 option, value, "--out", str(tmp_path)]) == 2


def test_frame_wider_than_int64_exit_code(tmp_path, monkeypatch, capsys):
    d = paper_default_config().to_dict()
    # each value within its own limit; the frame is 2**64 ps wide
    d["format"] = {"n_bits": 10, "bins_per_slot": 256, "bin_width_ps": 2**46}
    (tmp_path / "cfg.json").write_text(json.dumps(d))
    # rejected when the config loads, before any session is simulated
    monkeypatch.setattr("doqkd.session.simulate_session", None)
    assert main(["keygen", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path)]) == 2
    assert "does not fit in int64" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("n_bits", 0), ("bins_per_slot", 0),
                                        ("bin_width_ps", -160)])
def test_format_below_one_exit_code(tmp_path, monkeypatch, key, value):
    d = paper_default_config().to_dict()
    d["format"][key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(d))
    # rejected when the config loads, before any session is simulated
    monkeypatch.setattr("doqkd.session.simulate_session", None)
    assert main(["keygen", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("path, value", [
    *((section, value)
      for section in ("format", "histogram", "reconciliation", "baseline",
                      "dark_rate_hz")
      for value in ([], 5, "x")),
    ("duration_s", math.nan), ("duration_s", math.inf), ("duration_s", 0),
    ("pair_rate_hz", math.nan), ("pair_rate_hz", math.inf),
    ("baseline.duration_s", math.nan), ("baseline.duration_s", 0),
    ("baseline.duration_s", -1),
    ("seed", -1), ("histogram.bin_ps", 0), ("histogram.range_ps", 0),
    # 2 * 3845 ps is not a whole number of the default 30 ps bins
    ("histogram.range_ps", 3845),
    # 2.56e17 bins of 30 ps: counts no machine can allocate
    ("histogram.range_ps", 3840000000000000000),
    # bin numbers above 255 do not fit sift-v1's u8 field
    ("format.bins_per_slot", 257),
    # 4**11 symbol pairs overflow the information estimate's joint table
    ("format.n_bits", 11),
    ("reconciliation.block_length", 0), ("reconciliation.max_iterations", 0),
    # the rate-0.5 syndrome plus the 64-bit hash leaves no key bits
    ("reconciliation.block_length", 1), ("reconciliation.block_length", 8),
    ("reconciliation.block_length", 128),
    ("reconciliation.min_overhead", 0), ("reconciliation.min_overhead", -1),
    # simcfg-v1 only, and no key that the format does not define
    ("format_version", "simcfg-v9"), ("securty_fraction", 0.5),
    ("histogram.bin_pss", 10), ("dark_rate_hz.T5", 100.0),
    # more than 2**25 pairs plus dark counts expected per 0.25 s chunk
    ("pair_rate_hz", 1.7e10), ("dark_rate_hz.F1", 2e8),
])
def test_bad_config_value_exit_code(tmp_path, monkeypatch, path, value):
    d = paper_default_config().to_dict()
    *outer, key = path.split(".")
    section = d
    for k in outer:
        section = section[k]
    section[key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(d))
    # rejected when the config loads, before any session is simulated
    monkeypatch.setattr("doqkd.session.simulate_session", None)
    assert main(["keygen", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("path, value", [("pair_rate_hz", 1.7e10),
                                         ("dark_rate_hz.F1", 2e8)])
def test_simulate_chunk_work_over_the_bound_exit_code(tmp_path, monkeypatch, path,
                                                      value):
    d = paper_default_config().to_dict()
    *outer, key = path.split(".")
    (d[outer[0]] if outer else d)[key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(d))
    # rejected when the config loads: not one chunk is drawn
    monkeypatch.setattr("doqkd.simulate._simulate_chunk", None)
    assert main(["simulate", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", [
    ["sift", "--in", "run", "--format", "2,300,10"],
    ["sift", "--in", "run", "--format", "2,3,10", "--format-b", "2,300,10"],
    ["keygen", "--format", "2,257,10"],
], ids=" ".join)
def test_format_bins_beyond_sift_v1_exit_code(tmp_path, nothing_read, command):
    command = [str(tmp_path) if arg == "run" else arg for arg in command]
    assert main([*command, "--out", str(tmp_path)]) == 2


def test_keygen_format_beyond_the_joint_table_exit_code(tmp_path, nothing_read):
    # 4**16 symbol pairs: rejected before the session is simulated
    assert main(["keygen", "--format", "16,3,20", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("option, value", [
    *(pytest.param("--duration", value, id=value)
      for value in ("nan", "inf", "0", "-1")),
    pytest.param("--seed", "-1", id="seed--1"),
])
def test_bad_duration_option_exit_code(tmp_path, monkeypatch, option, value):
    monkeypatch.setattr("doqkd.session.simulate_session", None)
    assert main(["keygen", option, value, "--out", str(tmp_path)]) == 2
