"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria run on seeded sessions (2.5 s equivalents unless noted),
so every number here is reproducible bit for bit.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

import doqkd as dq
from doqkd.postproc import reconcile_key
from doqkd.security import Baseline, holevo_bound, mutual_information
from doqkd.session import (align_bob, analyze_security, compute_baseline,
                           optimize, run_experiment, split_seed)
from doqkd.sifting import (FrameFormat, pack_symbols, run_sifting,
                           split_security_fraction)
from doqkd.timetags import Channel, TagStream, coincidence_histogram, effective_rates, fwhm

from reference_sifting import reference_sift


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_01_dispersion_cancellation_signature(session25):
    """Four-basis coincidence widths reproduce nonlocal dispersion cancellation."""
    h = session25["hists"]
    w = {k: fwhm(getattr(h, k)) for k in ("tt", "tf", "ft", "ff")}
    assert 150.0 * 0.85 <= w["tt"] <= 150.0 * 1.15
    assert 150.0 * 0.85 <= w["ff"] <= 150.0 * 1.15
    assert 800.0 <= w["tf"] <= 1000.0
    assert 800.0 <= w["ft"] <= 1000.0
    _report("1", f"FWHM tt={w['tt']:.0f} ff={w['ff']:.0f} "
                 f"tf={w['tf']:.0f} ft={w['ft']:.0f} ps")


def test_02_effective_rate_curve_shape(session25):
    """Effective rate rises and CAR strictly falls with bin width."""
    cfg = session25["cfg"]
    tags = session25["tags"]
    fmt = cfg.format
    seed = split_seed(cfg)
    _, key1 = split_security_fraction(tags.t1, cfg.security_fraction, seed, fmt)
    _, key2 = split_security_fraction(tags.t2, cfg.security_fraction, seed, fmt)

    taus = list(range(40, 401, 20))
    rates, cars = [], []
    for tau in taus:
        half = tau * (3840 // tau)
        h = coincidence_histogram(key1, key2, tau, (-half, half), cfg.duration_s)
        er = effective_rates(h)
        rates.append(er.effective_coincidence_rate_hz)
        cars.append(er.effective_car)
    assert all(b >= a for a, b in zip(rates, rates[1:])), "rate not non-decreasing"
    assert all(b < a for a, b in zip(cars, cars[1:])), "CAR not strictly decreasing"
    car160 = cars[taus.index(160)]
    assert 217.0 * 0.7 <= car160 <= 217.0 * 1.3
    _report("2", f"rate {rates[0]/1e3:.1f}->{rates[-1]/1e3:.1f} kHz rising, "
                 f"CAR {cars[0]:.0f}->{cars[-1]:.0f} falling, CAR(160)={car160:.0f}")


def test_03_optimization_landscape(sweep_table):
    """QBER(tau) dips then rises at I=3; more bins per slot help at small tau;
    raw rate grows with bin width."""
    i3 = sorted(sweep_table.select(n_bits=4, bins_per_slot=3),
                key=lambda r: r.tau_ps)
    qbers = [r.qber for r in i3]
    k = int(np.argmin(qbers))
    assert 0 < k < len(qbers) - 1, "QBER minimum not interior"
    assert qbers[0] > qbers[k] and qbers[-1] > qbers[k]

    for tau in (40, 60):
        by_i = {i: next(r.qber for r in sweep_table.select(4, i) if r.tau_ps == tau)
                for i in (3, 4, 5)}
        assert by_i[3] > by_i[4] > by_i[5], f"QBER not decreasing in I at tau={tau}"

    for i_bins in (3, 4, 5):
        rows = sorted(sweep_table.select(4, i_bins), key=lambda r: r.tau_ps)
        raws = [r.raw_rate_bps for r in rows]
        assert all(b >= a for a, b in zip(raws, raws[1:]))
    _report("3", f"interior QBER min at tau={i3[k].tau_ps} ps "
                 f"({100*qbers[k]:.2f}%), raw rate monotone in tau")


def test_04_dimension_optimum(session25, sweep_table):
    """Raw-rate argmax under the 5% QBER cap sits at N=4 near 160 ps."""
    entries = optimize(session25["cfg"], qber_cap=0.05, table=sweep_table)
    feasible = [e for e in entries if e.feasible]
    assert feasible, "no feasible dimension"
    best = max(feasible, key=lambda e: e.raw_rate_bps)
    assert best.n_bits == 4
    assert abs(best.tau_ps - 160) <= 40
    assert 151e3 * 0.65 <= best.raw_rate_bps <= 151e3 * 1.35
    _report("4", f"argmax N=4 at tau={best.tau_ps} ps I={best.bins_per_slot}, "
                 f"raw={best.raw_rate_bps/1e3:.1f} kbps, QBER={100*best.qber:.2f}%")


def test_05_secret_fraction_arithmetic():
    """Balance of disclosed information at the reported operating point."""
    di, no_key = dq.secret_fraction(3.48, 0.211, 0.90)
    assert not no_key
    assert abs(di - 2.921) <= 1e-6
    _report("5", f"secret_fraction(3.48, 0.211, 0.90) = {di:.6f}")


def test_06_security_analysis_oracle(session25):
    """Covariance estimates match truth annotations; eavesdropper bound is
    zero at baseline and monotone in injected noise."""
    cfg = dq.paper_default_config()
    cfg.duration_s = 2.5
    cfg.baseline_duration_s = 2.5
    cfg.seed = session25["cfg"].seed
    cfg.channel = dataclasses.replace(cfg.channel, eve_time_sigma_ps=0.0,
                                      eve_freq_sigma_rad_s=0.0)
    # triple the spectral-correlation spread so every matrix entry carries
    # comfortable signal over the moment-estimation noise
    cfg.source = dataclasses.replace(
        cfg.source,
        correlation_break_sigma_rad_s=3.0 * cfg.source.correlation_break_sigma_rad_s)
    tags = align_bob(dq.simulate_session(cfg, truth=True), 0)
    hists, tfcm = analyze_security(tags, cfg)
    n_coinc = sum(tfcm.sample_counts.values())
    assert n_coinc >= 1e5

    # ground truth from the simulator annotations
    t1, t2, f1, f2 = tags.t1, tags.t2, tags.f1, tags.f2
    var_wa_truth = float(np.nanvar(f1.detunings[f1.pair_ids >= 0]))
    var_wb_truth = float(np.nanvar(f2.detunings[f2.pair_ids >= 0]))

    def matched(a: TagStream, b: TagStream):
        pa = a.pair_ids
        pb = b.pair_ids
        ia = {int(p): k for k, p in enumerate(pa) if p >= 0}
        pairs = [(ia[int(p)], j) for j, p in enumerate(pb) if int(p) in ia]
        return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

    ka, kb = matched(t1, t2)
    dt = t1.times[ka].astype(float) - t2.times[kb].astype(float)
    sigma_t_truth = float(np.var(dt))
    ka, kb = matched(f1, f2)
    sum_w = f1.detunings[ka] + f2.detunings[kb]
    cov_truth = float(np.cov(f1.detunings[ka], f2.detunings[kb])[0, 1])
    sigma_w_truth = float(np.var(sum_w))

    m = tfcm.matrix
    assert tfcm.sigma_t_sq == pytest.approx(sigma_t_truth, rel=0.10)
    assert m[1, 1] == pytest.approx(var_wa_truth, rel=0.10)
    assert m[3, 3] == pytest.approx(var_wb_truth, rel=0.10)
    assert m[1, 3] == pytest.approx(cov_truth, rel=0.10)
    assert tfcm.sigma_w_sq == pytest.approx(sigma_w_truth, rel=0.10)

    baseline = session25["baseline"]
    assert holevo_bound(baseline.tfcm, baseline) == 0.0

    chis = []
    for k, eve in enumerate((0.0, 6e9, 12e9, 18e9, 24e9)):
        c = dq.paper_default_config()
        c.duration_s = 1.5
        c.baseline_duration_s = 1.5
        c.seed = cfg.seed + 17 * k
        c.channel = dataclasses.replace(c.channel, eve_freq_sigma_rad_s=eve)
        t = align_bob(dq.simulate_session(c), 0)
        _, est = analyze_security(t, c)
        chis.append(holevo_bound(est, baseline))
    assert all(b > a for a, b in zip(chis, chis[1:])), chis
    _report("6", f"entries within 10% of truth on {n_coinc:.0f} coincidences; "
                 f"chi(baseline)=0; chi sweep {['%.3f' % c for c in chis]}")


def test_07_sifting_oracle_equivalence():
    """Fast sifting is byte-identical to the quadratic reference."""
    rng = np.random.default_rng(777)
    for case in range(200):
        n_bits = int(rng.integers(1, 4))
        i_bins = int(rng.integers(1, 5))
        tau = int(rng.integers(1, 201))
        fmt = FrameFormat(n_bits, i_bins, tau)
        dur = int(fmt.frame_width_ps * rng.integers(5, 60)
                  + rng.integers(0, fmt.frame_width_ps))
        na, nb = rng.integers(0, 1001, 2)
        ta = np.unique(rng.integers(0, max(dur, 1), na))
        tb = np.unique(rng.integers(0, max(dur, 1), nb))
        alice = TagStream(ta, Channel.T1, dur)
        bob = TagStream(tb, Channel.T2, dur)
        res = run_sifting(alice, bob, fmt)
        ka, kb, kept, tbytes, multi = reference_sift(alice, bob, fmt)
        assert res.kept_frames == kept, f"case {case}"
        assert pack_symbols(res.key_a, n_bits) == pack_symbols(ka, n_bits)
        assert pack_symbols(res.key_b, n_bits) == pack_symbols(kb, n_bits)
        assert res.transcript_bytes() == tbytes
        assert res.discarded_multi_event == multi
    _report("7", "200 random instances byte-identical (keys and transcripts)")


def test_08_reconciliation_operating_point(code_0625):
    """Syndrome reconciliation at the 5% operating point."""
    rng = np.random.default_rng(40)
    n = 16384
    blocks = 110
    alice = rng.integers(0, 2, blocks * n).astype(np.uint8)
    flips = rng.random(blocks * n) < 0.05
    bob = alice ^ flips.astype(np.uint8)
    measured = flips.mean()
    assert abs(measured - 0.050) <= 0.002

    out = reconcile_key(alice, bob, block_length=n, code_seed=1)
    assert out.code_rate == 0.625
    assert out.n_blocks == blocks
    success = out.success_fraction
    assert success >= 0.90
    assert out.corrected_blocks >= 100
    assert out.efficiency_beta >= 0.85
    assert not any(out.residual_error_flags)
    _report("8", f"{out.corrected_blocks}/{blocks} blocks at p={measured:.4f}, "
                 f"beta={out.efficiency_beta:.3f}, zero residual errors")


def test_09_shannon_information_estimate():
    """Plug-in information for the 16-ary symmetric channel at 4.95%."""
    rng = np.random.default_rng(41)
    eps = 0.0495
    n = 300_000
    a = rng.integers(0, 16, n)
    b = a.copy()
    err = rng.random(n) < eps
    b[err] = (a[err] + rng.integers(1, 16, int(err.sum()))) % 16
    got = mutual_information(a, b, 16)
    analytic = 4.0 + eps * math.log2(eps) + (1 - eps) * math.log2(1 - eps) \
        - eps * math.log2(15)
    assert analytic == pytest.approx(3.5223, abs=0.001)
    assert abs(got - analytic) <= 0.05
    _report("9", f"I(A;B) = {got:.4f} vs analytic {analytic:.4f} "
                 "(experimental comparator: 3.48 bpc)")


def test_10_end_to_end_determinism_and_throughput():
    """Same seed gives identical keys; a >= 5M-tag session completes in 60 s."""
    def cfg():
        c = dq.paper_default_config()
        c.duration_s = 1.4
        c.baseline_duration_s = 1.4
        return c

    t0 = time.monotonic()
    rep1 = run_experiment(cfg())
    wall1 = time.monotonic() - t0
    t0 = time.monotonic()
    rep2 = run_experiment(cfg())
    wall2 = time.monotonic() - t0

    tags_processed = sum(rep1.singles_rates_hz.values()) * 1.4
    assert tags_processed >= 5e6
    assert rep1.secret_key and rep1.secret_key == rep2.secret_key
    assert rep1.canonical_bytes() == rep2.canonical_bytes()
    assert wall1 <= 60.0 and wall2 <= 60.0
    _report("10", f"{tags_processed/1e6:.1f}M tags end to end in "
                  f"{wall1:.1f}s/{wall2:.1f}s; keys byte-identical "
                  f"({rep1.secret_key_bits} bits)")
