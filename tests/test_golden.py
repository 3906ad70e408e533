"""Golden gate: fixed configurations must reproduce these output bytes.

Each case pins the SHA-256 of outputs that a pure refactor must leave
unchanged: the canonical session report and the key material of
``run_experiment``, the CSV of a small ``sweep``, the files written by
CLI ``simulate`` (streams and truth side files), ``analyze``, ``secure``
and ``sift`` (keys, sift-v1 transcript and statistics at two formats), the
four raw streams of
``simulate_session``, truth columns included, and the edge lists of the
LDPC codes. A change that alters the random stream or the decoded blocks
on purpose (the simulator, the code construction or the decoder's
schedule) updates these digests and says why in CHANGES.md; any other
change must keep them byte-identical.

A mismatch prints the observed digests of the failing case.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from doqkd.cli import main
from doqkd.ldpc import DEGREE_PROFILES, SUPPORTED_RATES, make_code, peg_construct
from doqkd.session import run_experiment, sweep
from doqkd.sifting import FrameFormat
from doqkd.simulate import (CHANNELS, DetectorModel, paper_default_config,
                            simulate_session)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def short_config(seed: int, duration_s: float = 0.2, **attrs):
    cfg = paper_default_config(seed=seed)
    cfg.duration_s = cfg.baseline_duration_s = duration_s
    cfg.block_length = 2048
    for k, v in attrs.items():
        setattr(cfg, k, v)
    return cfg


def session_config(name: str):
    if name == "default":
        return short_config(11)
    if name == "format_5_2_120":
        return short_config(12, format=FrameFormat(5, 2, 120))
    if name == "delay":
        cfg = short_config(13)
        cfg.channel = dataclasses.replace(cfg.channel,
                                          propagation_delay_ps=5 * 7680 + 123)
        return cfg
    raise KeyError(name)


def session_digests(name: str) -> dict:
    rep = run_experiment(session_config(name))
    return {"report": sha(rep.canonical_bytes()),
            "secret_key": sha(rep.secret_key),
            "raw_key_a": sha(rep.raw_key_a),
            "raw_key_b": sha(rep.raw_key_b),
            "reconciled_key": sha(rep.reconciled_key)}


def sweep_digests() -> dict:
    table = sweep(short_config(21, duration_s=0.1), tau_list=(80, 160),
                  i_list=(2, 3), n_list=(3, 4))
    return {"csv": sha(table.to_csv().encode())}


def cli_digests(tmp) -> tuple[dict, dict, dict]:
    """Digests of the ``analyze``/``secure`` outputs, of the files
    ``simulate`` writes for the session, and of the ``sift`` outputs."""
    cfg = short_config(31, duration_s=0.1)
    base = cfg.baseline_config()
    paths = {}
    for label, c in (("run", cfg), ("ref", base)):
        d = tmp / label
        d.mkdir()
        c.save(d / "cfg.json")
        assert main(["simulate", "--config", str(d / "cfg.json"),
                     "--out", str(d)]) == 0
        paths[label] = d
    out = tmp / "out"
    assert main(["analyze", "--in", str(paths["run"]), "--out", str(out)]) == 0
    assert main(["secure", "--in", str(paths["run"]), "--baseline",
                 str(paths["ref"]), "--config", str(paths["run"] / "cfg.json"),
                 "--out", str(out)]) == 0
    outputs = {name: sha((out / name).read_bytes())
               for name in ("analysis.json", "histograms.csv", "security.json")}
    recorded = {name: sha((paths["run"] / name).read_bytes())
                for ch in ("t1", "f1", "t2", "f2")
                for name in (f"{ch}.ttag", f"{ch}.ttag.truth")}
    sifted = {}
    for fmt in ("4,3,160", "2,256,10"):
        d = tmp / f"sift_{fmt}"
        assert main(["sift", "--in", str(paths["run"]), "--format", fmt,
                     "--out", str(d)]) == 0
        sifted.update({f"{fmt}/{name}": sha((d / name).read_bytes())
                       for name in ("transcript.bin", "key_a.bin", "key_b.bin",
                                    "sift.json")})
    return outputs, recorded, sifted


def simulate_config(name: str):
    """Raw sessions through the simulator branches the other cases skip."""
    if name == "branches":
        # two chunks; correlation-time spread, residual dispersion, a delay that pushes
        # Bob's tags across the chunk boundary, and 20 kHz dark counts
        cfg = paper_default_config(seed=41, duration_s=0.3,
                                   pair_rate_hz=4e6,
                                   correlation_time_sigma_ps=25.0,
                                   residual_dispersion_ps_per_nm=40.0,
                                   propagation_delay_ps=5 * 7680 + 123)
        cfg.detectors = {c: dataclasses.replace(d, dark_rate_hz=2e4)
                         for c, d in cfg.detectors.items()}
        return cfg
    if name == "ties":
        # zero jitter and a dense one-chunk stream: 17 pairs of equal
        # timestamps within a channel, which pin the order of tied tags
        cfg = paper_default_config(seed=42, duration_s=0.25, pair_rate_hz=1.2e7,
                                   transmission={"alice": 1.0, "bob": 1.0})
        cfg.detectors = {c: DetectorModel(1.0, 0.0, 5e4) for c in CHANNELS}
        return cfg
    raise KeyError(name)


def simulate_digests(name: str) -> dict:
    tags = simulate_session(simulate_config(name), truth=True)
    out = {}
    for ch in CHANNELS:
        s = tags.stream(ch)
        out[f"{ch.name}_ties"] = int(np.count_nonzero(np.diff(s.times) == 0))
        h = hashlib.sha256()
        for col in (s.times, s.pair_ids, s.detunings, s.emit_times):
            h.update(col.tobytes())
        out[ch.name] = h.hexdigest()
    return out


def code_digest(code) -> str:
    h = hashlib.sha256()
    h.update(code.edge_var.astype("<i4").tobytes())
    h.update(code.edge_chk.astype("<i4").tobytes())
    return h.hexdigest()


GOLDEN = {
    "default": {
        "report":
            "b7832b88be2f60b8d3bd3dc416e5235212d6acfe529a2e43955f09a389ca9911",
        "secret_key":
            "1561f6b2c9ac79ab14f7ab1a83ea40abe0f827c9c957e4b05e262e3036dea994",
        "raw_key_a":
            "3268a9ce93866196d9a603a17498cb013894e49cc6be10d2fc910274fb9b590d",
        "raw_key_b":
            "e0668955332d04e0c27cb6ec5cdbea02a70b15cdf4ffe37847d61cf72b385eaa",
        "reconciled_key":
            "1e67e7153c74db88862c4ef7a9735e46a24fa4734fc759c589b2ca455e034413",
    },
    "format_5_2_120": {
        "report":
            "9f863b302dea5675fbf143f584def209f2ff325b20311348f97f8f4bd760f29b",
        "secret_key":
            "df3281d5454be9bc9247e3c27c6954f3c215c2385991d0e8f765dfa4d177bdb5",
        "raw_key_a":
            "907aafb7a1bd5579325ca6b50d8611004345d963f7b289b554b8c79cfc9ce5f4",
        "raw_key_b":
            "cde4fc0fabac7bf6b9f1fba098f7c60c5f5afca0f02d9a7317f60b369b3aa90a",
        "reconciled_key":
            "164e2b13d41b38a2b290c461e1ad2629f658e1afece494d6b3af7b5b23f11b1a",
    },
    "delay": {
        "report":
            "4e051543f679121a2a0ac274bf30f664145080f7016b3b5ba0bc5229843a4c71",
        "secret_key":
            "e3375e2c52fffb0d1b5926ab852ea82dbc1467dba006312917c68d5ccc32a418",
        "raw_key_a":
            "b27ea4ba5368de86a50ffe4de231439a5442866bb2aa6dc0672d0a47386f4fc3",
        "raw_key_b":
            "e1c547913f6e3592fb0e836ad236026d7c80131eb81b56f4e1f0444a442357f7",
        "reconciled_key":
            "592e69f38f5379099db458a54debf1340e0eb1a6644c55b7db7b75e1cafb7973",
    },
    "sweep": {
        "csv":
            "7f1bb3fd38579412193fd4f255a54f23e891ff136859c3e8efbd01a79794895c",
    },
    "cli": {
        "analysis.json":
            "5d80ca0b1ccb5110d6a0174429abd23b69c89e0284c0beea0d00975eecd6f1d1",
        "histograms.csv":
            "72c7df114882bc4ae04aa18c1d79e3ac21002b1fd0c3042ae6c660d22eb70bb0",
        "security.json":
            "31d93910e6f8f5daef03ee8c2cb26e32d9074b8c4792baf6930f13da32c84d98",
    },
    "cli_simulate": {
        "t1.ttag":
            "e4414b21798354f48206609a0f01f8df801ec255cfee354c585c434468308c9b",
        "t1.ttag.truth":
            "fd48c4f5cced3af152ed341ad176194be391368189d23d3fd63805f938a1bb94",
        "f1.ttag":
            "d28ff67afdd5523844ff998ed020a4ce1a07a14342ab5d8502025df8e27fdf9b",
        "f1.ttag.truth":
            "34f5adb1cab98d124f0b5a4b7e155a8275972b4fe88763a2dd298bf06098b1a7",
        "t2.ttag":
            "761a5690060e4b75067040132d178b1932786011a9538513aea4b2991ec1ce74",
        "t2.ttag.truth":
            "5b9082ef6b5265960e0e3552a5fd5d30505725f87ad5ad968c544356c4b9ae86",
        "f2.ttag":
            "bdf40a8c840a4f07bbfb362c4d39a317161078fe39ce704ace1ca949eb981eac",
        "f2.ttag.truth":
            "9a9d6444410a4b6d4abe6093a4a6314f422771ce97a3e1b44e35d31e1879e6df",
    },
    "cli_sift": {
        "4,3,160/transcript.bin":
            "5aa03ca979b1a5b17b9f5248df28253b716d4f65fb191a1b938cc486cb5aa483",
        "4,3,160/key_a.bin":
            "c8541f23ff4de7863f59a96f2e95ca7b803119a263aaad70f0a80e92b2ed8b04",
        "4,3,160/key_b.bin":
            "86d435006c5d39a801a7acaf51b6067bc1793640fe2867235c5a5a201c66b251",
        "4,3,160/sift.json":
            "95bc06eefb775f0ac20d70794a59ac3b68b01f7270ebb567dba3b1d567eac7e9",
        "2,256,10/transcript.bin":
            "86ad629e7333527a9acf715a74c12e2127623d6343836717fc72856379316909",
        "2,256,10/key_a.bin":
            "ef9da9eac0678aa0adfb168a5f7f405794a489f393d4f37d497cd1a9efe2909a",
        "2,256,10/key_b.bin":
            "593823a93f709d5b2c05edb273e9659afb008ffc26a8d2d01b26cb02d925e2b8",
        "2,256,10/sift.json":
            "7c2641971700bc5b2f2480a90aef11007392a364a910816022757066387716d1",
    },
    "simulate_branches": {
        "T1_ties": 0,
        "T1": "bba55ace17c4b545bcf4a08284f08c576884a737f6893ce9e6e4bc9828ba5956",
        "F1_ties": 0,
        "F1": "3371903f2e140c3649949b1d2257f1f9d896ed00d9d6dee43a8839f6c463bdcb",
        "T2_ties": 0,
        "T2": "7a32bedd7b18b63810e8e63ca01ee0483383b69b101e7f3bd58b1bd10c3115ef",
        "F2_ties": 0,
        "F2": "f36e0199ebf215888f4a2b13e1e0e8d6b1585858d16a3344a50b5ecf909ebcb8",
    },
    "simulate_ties": {
        "T1_ties": 7,
        "T1": "0ca5ec9c5bf5156dd384e69fab4d601c57eb0cac6d7325367ce571b581170b68",
        "F1_ties": 4,
        "F1": "550364b2fc9d09c68ec1350604bd1e04e7bdc6d8985c1230f151b4c17a939a45",
        "T2_ties": 4,
        "T2": "7ff2b92bf2f4cb1fbd5b160590372c65fe68a2ade35159c882df9a497bfe67ac",
        "F2_ties": 2,
        "F2": "d10993a188c88e2ca16276fc9910b91966cd79b295f24c52dd4339db6edf7572",
    },
    "code": {
        "2048_0.5":
            "5920bfbc32c12cc18ba4d43203fbce96b51d4d75fd470212b031e6505889917e",
        "2048_0.6":
            "41c76478c09de81004d8fd502567bd8bb810dacb2413a0835095ac12ebaca88d",
        "2048_0.625":
            "21d9bbc39198861b0f31a55463c2a45a7a71c5fbb9827680f21754e7dfe333f1",
        "2048_0.65":
            "c85cc6c2f7680e6c375069724db5a42825238e3a922ca5e3741baaaca06c80ec",
        "2048_0.7":
            "8ce8613144db1ab7b56a887220568473f8b999b083aef5687d9aceac8694c1bc",
        "2048_0.75":
            "7e09fb80d99d46edc54512a2268c8fa4eab76b3700f37100e7318ca643168add",
        "2048_0.8":
            "624d55c76fee852436962377e223a2b7d6cd5bfc6d429b822bfaad02be73f1ff",
        "16384_0.625":
            "a2185d11834d58e595e4f0cfe2de258bcaa2d5945cd9de1a38fa9baabeeb94f5",
        "peg_96_36":
            "9103908052acaaefdbf3041f3cc158e923260761cc2322e810c7c4962496c4af",
        "peg_12_5":
            "8435f7320909ec663ecd035744b617521442ef75afc7b0cae07e6cb6112cac4c",
    },
}


def check(case: str, observed: dict) -> None:
    expected = GOLDEN[case]
    assert observed == expected, (
        f"golden gate '{case}' changed; observed digests:\n"
        + "\n".join(f"    {k!r}: {v!r}," for k, v in observed.items()))


@pytest.mark.parametrize("name", ["default", "format_5_2_120", "delay"])
def test_session(name):
    check(name, session_digests(name))


def test_sweep():
    check("sweep", sweep_digests())


def test_cli(tmp_path):
    outputs, recorded, sifted = cli_digests(tmp_path)
    check("cli", outputs)
    check("cli_simulate", recorded)
    check("cli_sift", sifted)


@pytest.mark.parametrize("name", ["branches", "ties"])
def test_simulate(name):
    check(f"simulate_{name}", simulate_digests(name))


# 2048 is the golden sessions' block length. The two small PEG cases reach
# the search branches the 2048-bit codes leave out: 96 x 36 falls back to
# "any check not directly attached", and 12 x 5 to "any check at all".
@pytest.mark.parametrize("case", [f"2048_{r}" for r in SUPPORTED_RATES]
                         + ["16384_0.625", "peg_96_36", "peg_12_5"])
def test_code(case, request):
    if case == "16384_0.625":
        code = request.getfixturevalue("code_0625")
    elif case.startswith("2048_"):
        code = make_code(2048, float(case[5:]))
    else:
        n, m = map(int, case[4:].split("_"))
        code = peg_construct(n, m, 1, DEGREE_PROFILES[0.625])
    assert code_digest(code) == GOLDEN["code"][case], (
        f"golden gate 'code' case {case!r} changed; observed {code_digest(code)!r}")
