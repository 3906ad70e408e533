import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import doqkd as dq
from doqkd.cli import main
from doqkd.errors import ConfigError
from doqkd.simulate import (CHANNELS, CHUNK_PS, ChannelModel, DetectorModel,
                            DispersiveBasis, SimConfig, SourceModel,
                            beta_from_dispersion, dispersive_shift,
                            paper_default_config, _BLOCK, _FREQ, _TIME,
                            _merge, _outcomes, _release, _stable_sort,
                            simulate_session, simulate_windows)
from doqkd.timetags import Channel, Party, coincidence_histogram, fwhm
from calibration import (FWHM_PER_SIGMA, CalibrationError, CalibrationTargets,
                         calibrate, dispersion_spread_ps, jitter_sigma_for_fwhm)
from reference_simulate import whole_session
from test_golden import simulate_config

DEFAULT_DICT = paper_default_config().to_dict()
# every top-level field of the paper default, and every field of its sections
CONFIG_FIELDS = [(k,) for k in DEFAULT_DICT] + [
    (k, sub) for k, v in DEFAULT_DICT.items() if isinstance(v, dict) for sub in v]
# arbitrary JSON: null, bools, any-size integers, floats with NaN and
# infinities, strings, and lists and objects of these
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2**63, 10**400, -10**400]) | st.floats() | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6)


def small_cfg(**kw):
    cfg = paper_default_config()
    cfg.duration_s = kw.pop("duration_s", 0.2)
    cfg.baseline_duration_s = cfg.duration_s
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


class TestModels:
    def test_source_validation(self):
        with pytest.raises(ConfigError):
            SourceModel(0.0, 1e11)
        with pytest.raises(ConfigError):
            SourceModel(1e6, -1.0)
        SourceModel(1e6, 0.0)  # degenerate spectrum is allowed

    def test_channel_validation(self):
        with pytest.raises(ConfigError):
            ChannelModel(0.0, 1.0)

    def test_detector_validation(self):
        with pytest.raises(ConfigError):
            DetectorModel(1.5, 50.0)

    def test_config_roundtrip(self, tmp_path):
        cfg = paper_default_config()
        p = tmp_path / "cfg.json"
        cfg.save(p)
        back = SimConfig.load(p)
        assert back.to_dict() == cfg.to_dict()

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"duration_s": 1.0}')
        with pytest.raises(ConfigError):
            SimConfig.load(p)

    def test_non_integer_seed_rejected(self):
        d = paper_default_config().to_dict()
        d["seed"] = "not-a-seed"
        with pytest.raises(ConfigError):
            SimConfig.from_dict(d)

    def test_format_version(self):
        d = copy.deepcopy(DEFAULT_DICT)
        d["format_version"] = "simcfg-v9"
        with pytest.raises(ConfigError, match="simcfg-v9"):
            SimConfig.from_dict(d)
        del d["format_version"]
        assert SimConfig.from_dict(d).to_dict() == DEFAULT_DICT

    # a misspelt key must not leave its field silently at the default
    @pytest.mark.parametrize("path", [("securty_fraction",),
                                      ("histogram", "bin_pss"),
                                      ("reconciliation", "block_len"),
                                      ("dark_rate_hz", "T5"),
                                      ("transmission", "carol")],
                             ids=".".join)
    def test_unknown_key_rejected(self, path):
        d = copy.deepcopy(DEFAULT_DICT)
        *outer, key = path
        (d[outer[0]] if outer else d)[key] = 10
        with pytest.raises(ConfigError, match=".".join(path)):
            SimConfig.from_dict(d)

    @pytest.mark.parametrize("value", [[], "x", 5, None])
    def test_non_object_rejected(self, value):
        with pytest.raises(ConfigError):
            SimConfig.from_dict(value)

    @given(field=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES)
    @example(field=("format",), value=[])
    @example(field=("dark_rate_hz",), value="x")
    @example(field=("duration_s",), value=math.nan)
    @example(field=("duration_s",), value=math.inf)
    @example(field=("pair_rate_hz",), value=math.nan)
    @example(field=("baseline", "duration_s"), value=-1)
    def test_any_field_value_loads_or_is_config_error(self, field, value):
        d = copy.deepcopy(DEFAULT_DICT)
        *outer, key = field
        (d[outer[0]] if outer else d)[key] = value
        try:
            cfg = SimConfig.from_dict(d)
        except ConfigError:
            return
        assert 0 < cfg.duration_ps < 2**63
        assert 0 < cfg.baseline_config().duration_ps < 2**63
        assert 0 < cfg.source.pair_rate_hz < math.inf

    # pairs plus dark counts expected per 0.25 s chunk, against 2**25
    @pytest.mark.parametrize("path, value", [
        (("pair_rate_hz",), 1.35e8),            # 3.4e7 pairs
        (("pair_rate_hz",), 1.7e10),            # the paper default's rate, 1000x
        (("dark_rate_hz", "T2"), 1.35e8),
    ], ids=str)
    def test_chunk_work_bounded_at_load(self, path, value):
        d = copy.deepcopy(DEFAULT_DICT)
        *outer, key = path
        (d[outer[0]] if outer else d)[key] = value
        with pytest.raises(ConfigError, match="events per 0.25 s chunk"):
            SimConfig.from_dict(d)

    def test_chunk_work_bound_edge(self):
        # 8x the paper default: 3.25e7 pairs and the four 100 Hz dark rates load
        cfg = paper_default_config(pair_rate_hz=1.3e8)
        # and a config built in code is checked as a loaded one is
        with pytest.raises(ConfigError, match="events per 0.25 s chunk"):
            dataclasses.replace(cfg, source=dataclasses.replace(cfg.source,
                                                                pair_rate_hz=1.4e8))


class TestDispersiveShift:
    def test_zero_detuning(self):
        basis = DispersiveBasis.from_dispersion(1800.0)
        assert dispersive_shift(0.0, basis, Party.ALICE) == 0.0

    def test_party_antisymmetry(self):
        basis = DispersiveBasis.from_dispersion(1800.0)
        omega = 3.7e10
        assert dispersive_shift(omega, basis, Party.ALICE) == pytest.approx(
            -dispersive_shift(omega, basis, Party.BOB))

    def test_beta_magnitude(self):
        # 1800 ps/nm at 1550 nm: known group-delay coefficient
        assert beta_from_dispersion(1800.0, 1550.0) == pytest.approx(2.2958e-9,
                                                                     rel=1e-4)


class TestSimulateSession:
    def test_no_efficiency_no_darks_empty(self):
        cfg = small_cfg()
        cfg.detectors = {c: DetectorModel(0.0, 45.0, 0.0) for c in cfg.detectors}
        tags = simulate_session(cfg)
        assert tags.total_tags == 0

    def test_darks_only_poisson(self):
        cfg = small_cfg(duration_s=10.0)
        cfg.source = dataclasses.replace(cfg.source, pair_rate_hz=1e-9)
        cfg.detectors = {c: DetectorModel(0.0, 45.0, 100.0) for c in cfg.detectors}
        tags = simulate_session(cfg, truth=True)
        for ch in Channel:
            n = len(tags.stream(ch))
            assert abs(n - 1000) < 100  # ~3 sigma
            assert not (tags.stream(ch).pair_ids >= 0).any()

    def test_same_seed_bit_identical(self):
        a = simulate_session(small_cfg(), truth=True)
        b = simulate_session(small_cfg(), truth=True)
        for ch in Channel:
            np.testing.assert_array_equal(a.stream(ch).times, b.stream(ch).times)
            np.testing.assert_array_equal(a.stream(ch).pair_ids,
                                          b.stream(ch).pair_ids)

    def test_different_seed_differs(self):
        a = simulate_session(small_cfg())
        b = simulate_session(small_cfg(seed=1))
        assert len(a.t1) != len(b.t1) or not np.array_equal(a.t1.times, b.t1.times)

    def test_singles_ratios_match_targets(self):
        tags = simulate_session(small_cfg(duration_s=0.5))
        r = tags.singles_rates_hz()
        assert r["F1"] / r["T1"] == pytest.approx(321 / 554, rel=0.02)
        assert r["F2"] / r["T2"] == pytest.approx(245 / 315, rel=0.02)
        assert r["T2"] / r["T1"] == pytest.approx(315 / 554, rel=0.02)

    def test_truth_annotations_identify_pairs(self):
        tags = simulate_session(small_cfg(), truth=True)
        t1, t2 = tags.t1, tags.t2
        ids1 = {int(i): k for k, i in enumerate(t1.pair_ids) if i >= 0}
        common = [(k, j) for j, i in enumerate(t2.pair_ids)
                  if int(i) in ids1 for k in [ids1[int(i)]]]
        assert len(common) > 100
        k, j = common[0]
        # paired photons share the emission time and have opposite detunings
        assert t1.emit_times[k] == t2.emit_times[j]
        corr = np.corrcoef(
            [float(t1.detunings[k]) for k, j in common[:1000]],
            [float(t2.detunings[j]) for k, j in common[:1000]])[0, 1]
        assert corr < -0.9

    def test_tt_fwhm_independent_of_beta_d(self):
        cfg = small_cfg(duration_s=0.5)
        tags1 = simulate_session(cfg)
        cfg2 = small_cfg(duration_s=0.5)
        cfg2.basis = DispersiveBasis(cfg2.basis.dispersion_ps_per_nm,
                                     cfg2.basis.beta_d_ps_per_rad_s * 2)
        tags2 = simulate_session(cfg2)
        h1 = coincidence_histogram(tags1.t1, tags1.t2, 30, (-3840, 3840))
        h2 = coincidence_histogram(tags2.t1, tags2.t2, 30, (-3840, 3840))
        assert fwhm(h1) == pytest.approx(fwhm(h2), rel=0.05)

    def test_dispersion_cancellation_and_residual_broadening(self):
        widths = []
        for resid in (0.0, 300.0, 600.0):
            cfg = small_cfg(duration_s=0.4)
            cfg.channel = dataclasses.replace(
                cfg.channel, residual_dispersion_ps_per_nm=resid,
                eve_time_sigma_ps=0.0, eve_freq_sigma_rad_s=0.0)
            tags = simulate_session(cfg)
            h = coincidence_histogram(tags.f1, tags.f2, 30, (-3840, 3840))
            widths.append(fwhm(h))
        tt = 150.0
        assert widths[0] == pytest.approx(tt * math.sqrt(1.10), rel=0.12)
        assert widths[0] < widths[1] < widths[2]

    def test_exact_anticorrelation_restores_tt_width(self):
        # perfectly opposite coefficients + perfectly anti-correlated
        # detunings: the freq/freq peak equals the time/time peak
        cfg = small_cfg(duration_s=0.4)
        cfg.source = dataclasses.replace(cfg.source,
                                         correlation_break_sigma_rad_s=0.0)
        cfg.channel = dataclasses.replace(cfg.channel, eve_time_sigma_ps=0.0,
                                          eve_freq_sigma_rad_s=0.0)
        tags = simulate_session(cfg)
        h_tt = coincidence_histogram(tags.t1, tags.t2, 30, (-3840, 3840))
        h_ff = coincidence_histogram(tags.f1, tags.f2, 30, (-3840, 3840))
        assert fwhm(h_ff) == pytest.approx(fwhm(h_tt), rel=0.05)

    def test_accidental_floor_matches_rate_product(self):
        cfg = small_cfg(duration_s=0.5)
        tags = simulate_session(cfg)
        h = coincidence_histogram(tags.t1, tags.t2, 30, (-3840, 3840))
        counts = h.counts.astype(float)
        centers = h.bin_centers()
        floor = counts[np.abs(centers) > 1000].mean()
        expect = tags.t1.rate_hz * tags.t2.rate_hz * 30e-12 * cfg.duration_s
        sigma = math.sqrt(expect / np.count_nonzero(np.abs(centers) > 1000))
        assert abs(floor - expect) < 5 * sigma

    def test_propagation_delay_shifts_bob(self):
        self.assert_delay_shifts_bob({})

    def test_propagation_delay_shifts_a_noiseless_bob(self):
        # without injected noise Bob's channels gather straight from the
        # emission times, and the delay is added per channel
        self.assert_delay_shifts_bob({"eve_time_sigma_ps": 0.0,
                                      "eve_freq_sigma_rad_s": 0.0})

    @staticmethod
    def assert_delay_shifts_bob(noise):
        cfg = small_cfg()
        cfg.channel = dataclasses.replace(cfg.channel, propagation_delay_ps=123_456,
                                          **noise)
        tags = simulate_session(cfg)
        ref_cfg = small_cfg()
        ref_cfg.channel = dataclasses.replace(ref_cfg.channel, **noise)
        ref = simulate_session(ref_cfg)
        # same pairs, shifted arrivals (tail drops aside)
        assert abs(len(tags.t2) - len(ref.t2)) < 200
        h = coincidence_histogram(ref.t2, tags.t2, 2, (123_450, 123_462))
        assert h.counts.sum() > 0.9 * min(len(tags.t2), len(ref.t2))

    def test_peak_memory_is_a_few_times_the_output(self):
        # one int8 code per emitted pair; float64 columns only for detections
        tracemalloc.start()
        try:
            tags = simulate_session(paper_default_config(duration_s=0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * sum(tags.stream(ch).times.nbytes for ch in CHANNELS)


def slow_config(seed=1, duration_s=0.8, delay_ps=0, jitter_ps=45.0):
    """The paper default at a 20 kHz pair rate, with one jitter on all four
    detectors: a few thousand tags per chunk."""
    cfg = paper_default_config(seed=seed, duration_s=duration_s, pair_rate_hz=2e4,
                               propagation_delay_ps=delay_ps)
    cfg.detectors = {c: DetectorModel(d.efficiency, jitter_ps, d.dark_rate_hz)
                     for c, d in cfg.detectors.items()}
    return cfg


def assert_same_streams(a, b):
    for ch in CHANNELS:
        x, y = a.stream(ch), b.stream(ch)
        assert x.channel == y.channel == ch and x.duration_ps == y.duration_ps
        for col in ("times", "pair_ids", "detunings", "emit_times"):
            u, v = getattr(x, col), getattr(y, col)
            assert (u is None) == (v is None)
            if u is not None:
                assert u.dtype == v.dtype and u.tobytes() == v.tobytes()


class TestWindows:
    """``simulate_windows`` hands a session out in time-ordered windows that
    join into the streams of one sort over all chunks, ties included."""

    @given(seed=st.integers(0, 2**64 - 1), duration_s=st.floats(1e-3, 0.75),
           delay_ps=st.integers(-10**6, 0) | st.integers(0, 4 * 10**11),
           jitter_ps=st.sampled_from([0.0, 45.0, 3e10]), truth=st.booleans())
    @example(seed=2, duration_s=0.75, delay_ps=3 * 10**11, jitter_ps=3e10, truth=True)
    @example(seed=3, duration_s=0.25, delay_ps=0, jitter_ps=45.0, truth=True)
    def test_windows_join_into_the_whole_session(self, seed, duration_s, delay_ps,
                                                 jitter_ps, truth):
        cfg = slow_config(seed, duration_s, delay_ps, jitter_ps)
        windows = list(simulate_windows(cfg, truth=truth))
        assert len(windows) == -(-cfg.duration_ps // CHUNK_PS) + 1
        start = 0
        for end, window in windows:
            for ch in CHANNELS:
                t = window.stream(ch).times  # sorted, as TagStream checks
                assert not t.size or start <= t[0] and t[-1] < end
            start = end
        assert start == cfg.duration_ps
        joined = [np.concatenate([getattr(w.stream(ch), col) for _, w in windows])
                  for ch in CHANNELS for col in ("times",) + (
                      ("pair_ids", "detunings", "emit_times") if truth else ())]
        whole = whole_session(cfg, truth)
        assert_same_streams(simulate_session(cfg, truth=truth), whole)
        assert [a.tobytes() for a in joined] == [
            getattr(whole.stream(ch), col).tobytes() for ch in CHANNELS
            for col in ("times",) + (("pair_ids", "detunings", "emit_times")
                                     if truth else ())]

    @pytest.mark.parametrize("change", [{"jitter_ps": 1e11},
                                        {"delay_ps": -3 * 10**11}])
    def test_tag_more_than_a_chunk_early_is_a_config_error(self, change, tmp_path):
        cfg = slow_config(**change)
        with pytest.raises(ConfigError, match="more than one"):
            simulate_session(cfg)
        cfg.save(tmp_path / "cfg.json")  # it loads: the check is the simulator's
        assert main(["keygen", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert main(["simulate", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "sim")]) == 2

    @given(held=st.lists(st.integers(0, 6), max_size=30).map(sorted),
           parts=st.lists(st.lists(st.integers(0, 9), max_size=30), max_size=3),
           bound=st.integers(0, 10))
    @example(held=[3, 5, 5], parts=[[5, 1], [5, 3]], bound=5)
    def test_merge_and_release_keep_the_stable_order(self, held, parts, bound):
        # ties between held tags and a new chunk's, where the tie order
        # shows only in the truth columns; tags equal to a bound stay held
        def cols(times, first_id):
            t = np.array(times, np.int64)
            return {"times": t, "pair_ids": first_id + np.arange(t.size),
                    "detunings": t * 0.5, "emit_times": t * 7}
        merged_in = [cols(held, 0)] + [cols(p, 100 * (k + 1)) for k, p in enumerate(parts)]
        merged = _merge(merged_in[0], [dict(c) for c in merged_in[1:]], 0)
        order = np.argsort(np.concatenate([c["times"] for c in merged_in]), kind="stable")
        for key in ("times", "pair_ids", "detunings", "emit_times"):
            expected = np.concatenate([c[key] for c in merged_in])[order]
            assert merged[key].tobytes() == expected.tobytes()
        state = {ch: {k: v.copy() for k, v in merged.items()} for ch in CHANNELS}
        window = _release(state, bound, 20)
        for ch in CHANNELS:
            assert (window.stream(ch).times < bound).all()
            assert (state[ch]["times"] >= bound).all()
            assert window.stream(ch).pair_ids.tolist() + state[ch]["pair_ids"].tolist() \
                == merged["pair_ids"].tolist()

    def test_a_chunk_of_lookahead_is_enough(self):
        # a quarter-second delay less one picosecond still fits the windows
        cfg = slow_config(delay_ps=-(CHUNK_PS - 1), jitter_ps=0.0)
        assert_same_streams(simulate_session(cfg, truth=True), whole_session(cfg, True))


class TestOutcomes:
    @given(seed=st.integers(0, 2**64 - 1),
           n=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]),
           p_time=st.floats(0, 1), share=st.floats(0, 1))
    @example(seed=1, n=_BLOCK + 1, p_time=0.0, share=0.4)
    @example(seed=2, n=_BLOCK + 1, p_time=0.3, share=0.0)
    @example(seed=3, n=_BLOCK + 1, p_time=0.5, share=1.0)
    @example(seed=4, n=_BLOCK + 1, p_time=0.0, share=1.0)
    def test_matches_whole_array_draw(self, seed, n, p_time, share):
        p_freq = share * (1 - p_time)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        codes = _outcomes(rng, n, p_time, p_freq)
        u = ref.random(n)
        expected = np.where(u < p_time, _TIME, np.where(u < p_time + p_freq, _FREQ, 0))
        np.testing.assert_array_equal(codes, expected)
        assert codes.dtype == np.int8
        assert rng.bit_generator.state == ref.bit_generator.state


class TestCalibrate:
    def test_jitter_formula(self):
        sig = jitter_sigma_for_fwhm(150.0)
        assert sig == pytest.approx(150.0 / FWHM_PER_SIGMA / math.sqrt(2))
        assert sig == pytest.approx(45.04, abs=0.01)

    def test_quadrature_subtraction(self):
        spread = dispersion_spread_ps(150.0, 900.0)
        assert spread == pytest.approx(math.sqrt(900**2 - 150**2) / FWHM_PER_SIGMA)

    def test_equal_targets_zero_spread(self):
        assert dispersion_spread_ps(200.0, 200.0) == 0.0

    def test_unattainable_rejected(self):
        with pytest.raises(CalibrationError):
            dispersion_spread_ps(900.0, 150.0)
        with pytest.raises(CalibrationError):
            calibrate(CalibrationTargets(tt_fwhm_ps=900.0, cross_fwhm_ps=150.0))

    def test_bundled_config_matches_calibration(self):
        def fields(d, prefix=""):
            for k, v in d.items():
                if isinstance(v, dict):
                    yield from fields(v, f"{prefix}{k}.")
                else:
                    yield f"{prefix}{k}", v
        # every rate, width and noise parameter of the bundled file is the fit
        assert dict(fields(calibrate().to_dict())) == pytest.approx(
            dict(fields(paper_default_config().to_dict())), rel=1e-9)

    def test_calibrated_widths_within_5pct(self):
        # the bundled scenario's widths, without the injected channel noise
        cfg = paper_default_config(duration_s=0.5)
        cfg.channel = ChannelModel(cfg.channel.alice_transmission,
                                   cfg.channel.bob_transmission)
        tags = simulate_session(cfg)
        h_tt = coincidence_histogram(tags.t1, tags.t2, 30, (-3840, 3840))
        h_tf = coincidence_histogram(tags.t1, tags.f2, 30, (-3840, 3840))
        assert fwhm(h_tt) == pytest.approx(150.0, rel=0.05)
        assert fwhm(h_tf) == pytest.approx(900.0, rel=0.05)

    def test_chunking_is_canonical(self):
        # durations that differ only by trailing time agree on the prefix
        c1 = small_cfg(duration_s=0.3)
        c2 = small_cfg(duration_s=0.55)
        a = simulate_session(c1)
        b = simulate_session(c2)
        cut = np.searchsorted(b.t1.times, c1.duration_ps)
        np.testing.assert_array_equal(a.t1.times, b.t1.times[:cut])


def assert_truth_only_annotates(cfg):
    """Truth columns come only on request, full length, beside equal times."""
    plain = simulate_session(cfg)
    annotated = simulate_session(cfg, truth=True)
    for ch in CHANNELS:
        a, b = plain.stream(ch), annotated.stream(ch)
        np.testing.assert_array_equal(a.times, b.times)
        assert not a.has_truth() and b.has_truth()
        for col in (b.pair_ids, b.detunings, b.emit_times):
            assert col.shape == b.times.shape


class TestTruthOption:
    @pytest.mark.parametrize("name", ["branches", "ties"])
    def test_golden_configs(self, name):
        assert_truth_only_annotates(simulate_config(name))

    @given(seed=st.integers(0, 2**64 - 1), duration_s=st.floats(1e-6, 0.6),
           pair_rate_hz=st.floats(1e3, 3e5))
    def test_times_do_not_depend_on_truth(self, seed, duration_s, pair_rate_hz):
        assert_truth_only_annotates(paper_default_config(
            seed=seed, duration_s=duration_s, pair_rate_hz=pair_rate_hz))


class TestStableSort:
    @given(st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1),
                    max_size=400))
    @example([])
    @example([5])
    @example([7] * 300)
    def test_matches_stable_argsort(self, values):
        a = np.array(values, dtype=np.int64)
        ordered, order = _stable_sort(a)
        np.testing.assert_array_equal(order, np.argsort(a, kind="stable"))
        np.testing.assert_array_equal(ordered, a[order])

    def test_long_array_with_many_ties(self):
        a = np.random.default_rng(3).integers(0, 1000, 200_000)
        ordered, order = _stable_sort(a)
        np.testing.assert_array_equal(order, np.argsort(a, kind="stable"))
        np.testing.assert_array_equal(ordered, np.sort(a))
