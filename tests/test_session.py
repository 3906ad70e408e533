import dataclasses
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import doqkd as dq
from doqkd import session
from doqkd.errors import ConfigError, DoqkdError, EstimationError, StageError
from doqkd.security import (FourBasisHistograms, estimate_tfcm,
                            mutual_information, secret_fraction)
from doqkd.session import (NOMINAL_BETA, OptimizeEntry, SweepRow, align_bob,
                           optimize, run_experiment, split_seed, sweep)
from doqkd.sifting import (FrameFormat, qber, run_sifting,
                           split_security_fraction)
from doqkd.simulate import (ChannelModel, DetectorModel, SessionTags,
                            paper_default_config, simulate_windows)
from doqkd.timetags import Channel, TagStream, coincidence_histogram


def tiny_cfg(**kw):
    cfg = paper_default_config()
    cfg.duration_s = kw.pop("duration_s", 0.25)
    cfg.baseline_duration_s = cfg.duration_s
    cfg.block_length = kw.pop("block_length", 4096)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


@pytest.fixture(scope="module")
def tiny_report():
    return run_experiment(tiny_cfg())


class TestRunExperiment:
    def test_report_identities(self, tiny_report):
        rep = tiny_report
        cfg_dur = rep.config["duration_s"]
        n = rep.config["format"]["n_bits"]
        assert rep.raw_rate_bps == pytest.approx(n * rep.kept_frames / cfg_dur)
        # secret rate bounded by raw rate times the per-symbol secret fraction
        if not rep.security.no_key:
            assert rep.secret_rate_bps <= rep.raw_rate_bps \
                * rep.security.delta_i_bpc / n * 1.0001

    def test_report_schema(self, tiny_report):
        d = tiny_report.to_dict()
        assert set(d["security"]) >= {"xi_t", "xi_w", "i_ab_bpc", "chi_ae_bpc",
                                      "beta", "delta_i_bpc", "no_key"}
        assert {"kept_frames", "raw_rate_bps", "qber_symbol", "qber_bit"} <= \
            set(d["sift"])
        json.dumps(d)  # serializable

    def test_determinism(self):
        a = run_experiment(tiny_cfg())
        b = run_experiment(tiny_cfg())
        assert a.secret_key == b.secret_key
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.to_dict()["secret_key_sha256"] == b.to_dict()["secret_key_sha256"]

    def test_zero_noise_perfect_channel(self):
        # no jitter, no darks, and a pair rate low enough that no frame ever
        # holds events from two different pairs
        cfg = tiny_cfg(duration_s=60.0)
        cfg.detectors = {c: DetectorModel(d.efficiency, 0.0, 0.0)
                         for c, d in cfg.detectors.items()}
        cfg.channel = ChannelModel(1.0, 0.4)
        cfg.source = dataclasses.replace(cfg.source, pair_rate_hz=25e3,
                                         correlation_break_sigma_rad_s=0.0)
        cfg.format = FrameFormat(3, 5, 20)  # jitter-free events always share a bin
        rep = run_experiment(cfg)
        assert rep.qber_symbol == 0.0
        assert rep.reconciliation.measured_ber == 0.0
        beta = rep.security.beta
        n = cfg.format.n_bits
        # perfect channel: information is the full n bits, nothing leaks
        assert rep.security.i_ab_bpc == pytest.approx(n, abs=0.02)
        assert rep.security.chi_ae_bpc == pytest.approx(0.0, abs=0.02)
        assert rep.security.delta_i_bpc == pytest.approx(beta * n, abs=0.1)

    def test_propagation_delay_compensated(self):
        ref = run_experiment(tiny_cfg())
        cfg = tiny_cfg()
        cfg.channel = dataclasses.replace(cfg.channel,
                                          propagation_delay_ps=5 * 7680)
        rep = run_experiment(cfg)
        assert rep.kept_frames == pytest.approx(ref.kept_frames, rel=0.01)
        assert rep.qber_symbol == pytest.approx(ref.qber_symbol, abs=0.005)

    def test_delay_removal_drops_tags_before_the_delay(self):
        # a dark count or a jittered tag may precede the delay
        tags = SessionTags(*(TagStream(np.array([0, 5, 20, 29]), ch, 30) for ch in Channel))
        aligned = align_bob(tags, 10)
        assert aligned.t1 is tags.t1 and aligned.f1 is tags.f1
        for s in (aligned.t2, aligned.f2):
            assert s.times.tolist() == [10, 19]
            assert s.duration_ps == 30

    def test_stage_error_tagging(self):
        cfg = tiny_cfg(duration_s=0.02)
        cfg.security_fraction = 0.9999999  # leaves no key events
        with pytest.raises(StageError):
            run_experiment(cfg)


def per_channel(values):
    return st.fixed_dictionaries({name: values for name in ("T1", "F1", "T2", "F2")})


def or_typical(typical, values):
    """``values``, or often the one that most sessions reach a key with."""
    return st.just(typical) | values


@st.composite
def small_configs(draw):
    """simcfg-v1 overrides of the paper default: 1-60 ms sessions and
    baselines, pair rates up to 2e6 Hz, any format, histogram layout,
    security fraction and block length, delays, noise and transmission.
    Each draw that decides whether the histograms hold a peak is often
    the value at which they do, so that many sessions reach the later
    stages."""
    duration = or_typical(0.06, st.floats(1e-3, 0.06))
    unit = or_typical(1.0, st.floats(1e-3, 1.0))
    bin_ps, half_bins = draw(or_typical((30, 128), st.tuples(st.integers(1, 200),
                                                             st.integers(1, 300))))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        duration_s=draw(duration), baseline={"duration_s": draw(duration)},
        pair_rate_hz=draw(or_typical(2e6, st.floats(1e3, 2e6))),
        format={"n_bits": draw(st.integers(1, 6)),
                "bins_per_slot": draw(st.integers(1, 8)),
                "bin_width_ps": draw(st.integers(1, 600))},
        histogram={"bin_ps": bin_ps, "range_ps": bin_ps * half_bins},
        security_fraction=draw(or_typical(0.5, st.floats(0.01, 0.99))),
        reconciliation={"block_length": draw(st.integers(129, 3000)),
                        "max_iterations": draw(st.integers(1, 20))},
        propagation_delay_ps=draw(st.integers(-10**6, 10**8)),
        jitter_sigma_ps=draw(per_channel(or_typical(45.0, st.floats(0.0, 300.0)))),
        dark_rate_hz=draw(per_channel(or_typical(100.0, st.floats(0.0, 1e5)))),
        efficiency=draw(per_channel(unit)),
        transmission={"alice": draw(unit), "bob": draw(unit)},
        eve_time_sigma_ps=draw(st.floats(0.0, 200.0)),
        eve_freq_sigma_rad_s=draw(st.floats(0.0, 2e10)),
        correlation_time_sigma_ps=draw(st.floats(0.0, 100.0)),
        residual_dispersion_ps_per_nm=draw(st.floats(-200.0, 200.0)),
    )


class TestTypedFailures:
    """Whatever stage a small session fails in, the cause is typed."""

    @given(overrides=small_configs())
    def test_stage_errors_have_typed_causes(self, overrides):
        try:
            cfg = paper_default_config(**overrides)
        except ConfigError:
            return
        try:
            run_experiment(cfg)
        except StageError as e:
            assert isinstance(e.cause, DoqkdError), f"[{e.stage}] {e.cause!r}"


@pytest.fixture(scope="module")
def recorded():
    """tiny_cfg()'s aligned session and baseline tags, fixed before any run
    as a recording's are."""
    cfg, bcfg = tiny_cfg(), tiny_cfg().baseline_config()
    return (align_bob(dq.simulate_session(cfg), cfg.channel.propagation_delay_ps),
            align_bob(dq.simulate_session(bcfg), bcfg.channel.propagation_delay_ps))


# the session attributes each overlapped step is reached through: the
# recorded runs' baseline callable calls baseline_from_tags
STEP_ATTRS = {"compute_baseline": ("compute_baseline", "baseline_from_tags"),
              "reconcile_key": ("reconcile_key",)}


class TestOverlap:
    """run_experiment starts the baseline on one worker thread before it
    simulates the session; process_session then decodes on another while
    this thread estimates the session and waits for the baseline. Neither
    the order these finish in nor a failure in one of them leaks into the
    output or leaves a thread behind. Each case runs run_experiment, and
    process_session on recorded tags with a recorded baseline callable."""

    @staticmethod
    def runs(recorded):
        cfg = tiny_cfg()
        tags, btags = recorded
        yield lambda: run_experiment(cfg)
        yield lambda: session.process_session(
            tags, cfg, lambda: session.baseline_from_tags(btags, cfg))

    @pytest.mark.parametrize("slow", ["reconcile_key", "compute_baseline"])
    def test_output_independent_of_finish_order(self, tiny_report, recorded,
                                                monkeypatch, slow):
        def late(fn):
            def call(*args, **kwargs):
                time.sleep(0.2)
                return fn(*args, **kwargs)
            return call

        for attr in STEP_ATTRS[slow]:
            monkeypatch.setattr(session, attr, late(getattr(session, attr)))
        assert tiny_report.secret_key
        for run in self.runs(recorded):
            threads = threading.active_count()
            rep = run()
            assert threading.active_count() == threads
            assert rep.secret_key == tiny_report.secret_key
            assert rep.canonical_bytes() == tiny_report.canonical_bytes()

    @pytest.mark.parametrize("failing, stage", [
        (("compute_baseline",), "security"),
        (("reconcile_key",), "reconcile"),
        # the decoder fails first, but the baseline's failure is reported,
        # as when the two ran in turn
        (("compute_baseline", "reconcile_key"), "security"),
    ])
    def test_failure_stage(self, recorded, monkeypatch, failing, stage):
        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        def fail_late(*args):
            time.sleep(0.2)  # the decoder, if it fails, has failed by now
            raise RuntimeError("injected")

        fakes = {"compute_baseline": fail_late, "reconcile_key": fail}
        for name in failing:
            for attr in STEP_ATTRS[name]:
                monkeypatch.setattr(session, attr, fakes[name])
        for run in self.runs(recorded):
            threads = threading.active_count()
            with pytest.raises(StageError) as err:
                run()
            assert err.value.stage == stage
            assert isinstance(err.value.cause, RuntimeError)
            assert threading.active_count() == threads

    def test_simulate_failure_while_the_baseline_runs(self, monkeypatch):
        cfg = tiny_cfg()
        cfg.baseline_duration_s = 5.0  # the bundled length: 21 windows
        drawn = BaselineWindows(monkeypatch)

        def fail(config, **kwargs):
            drawn.fail()
            raise RuntimeError("injected")

        monkeypatch.setattr(session, "simulate_session", fail)
        threads = threading.active_count()
        with pytest.raises(StageError) as err:
            run_experiment(cfg)
        assert err.value.stage == "simulate"
        assert isinstance(err.value.cause, RuntimeError)
        # the error waits for the worker, which stops at its next window
        assert drawn.before >= 1 and drawn.after <= 2
        assert threading.active_count() == threads

    def test_preset_stop_draws_one_window(self, monkeypatch):
        cfg = tiny_cfg()
        cfg.baseline_duration_s = 5.0
        drawn = BaselineWindows(monkeypatch)
        stop = threading.Event()
        stop.set()
        with pytest.raises(session._Stopped):
            session.compute_baseline(cfg, stop)
        assert (drawn.before, drawn.after) == (1, 0)


class BaselineWindows:
    """Counts the windows the baseline draws, through the session module's
    ``simulate_windows``, before and after ``fail``; ``fail`` first waits
    until one is drawn, so the baseline is running when it is called."""

    def __init__(self, monkeypatch):
        self.before = self.after = 0
        self.drawn, self.failed = threading.Event(), threading.Event()
        windows = session.simulate_windows

        def counted(config, **kwargs):
            for window in windows(config, **kwargs):
                if self.failed.is_set():
                    self.after += 1
                else:
                    self.before += 1
                self.drawn.set()
                yield window

        monkeypatch.setattr(session, "simulate_windows", counted)

    def fail(self):
        assert self.drawn.wait(30)
        self.failed.set()


def whole_stream_histograms(tags, cfg):
    """The four-basis histograms of ``cfg``'s security subset of whole
    streams, each basis pair binned by ``coincidence_histogram`` alone."""
    fmt, seed = cfg.format, split_seed(cfg)
    t1, t2 = (split_security_fraction(s, cfg.security_fraction, seed, fmt)[0]
              for s in (tags.t1, tags.t2))
    streams = {"t": (t1, t2), "f": (tags.f1, tags.f2)}
    rng = (-cfg.hist_range_ps, cfg.hist_range_ps)
    return FourBasisHistograms(**{
        a + b: coincidence_histogram(streams[a][0], streams[b][1], cfg.hist_bin_ps,
                                     rng, cfg.duration_s)
        for a in "tf" for b in "tf"})


def assert_same_histograms(got, expected):
    for name in ("tt", "tf", "ft", "ff"):
        g, e = getattr(got, name), getattr(expected, name)
        assert (g.bin_width, g.offset_min, g.offset_max, g.acquisition_time_s) == (
            e.bin_width, e.offset_min, e.offset_max, e.acquisition_time_s)
        assert g.counts.dtype == e.counts.dtype
        assert g.counts.tobytes() == e.counts.tobytes()


def window_list(tags, cuts):
    """``tags`` cut at the sorted times ``cuts`` into windows (end, tags)."""
    out, lo = [], 0
    for end in list(cuts) + [math.inf]:
        out.append((end, SessionTags(*(s.select((s.times >= lo) & (s.times < end))
                                       for s in (tags.t1, tags.f1, tags.t2, tags.f2)))))
        lo = end
    return out


class TestWindowedEstimate:
    """Histograms binned window by window count what whole streams count."""

    def test_baseline_tfcm_bytes_equal_the_whole_stream_estimate(self):
        cfg = tiny_cfg()
        cfg.baseline_duration_s = 0.6  # three windows
        bcfg = cfg.baseline_config()
        tags = dq.simulate_session(bcfg)
        expected = estimate_tfcm(whole_stream_histograms(tags, bcfg),
                                 bcfg.basis.beta_d_ps_per_rad_s)
        for baseline in (session.compute_baseline(cfg),
                         session.baseline_from_tags(tags, cfg)):
            assert baseline.tfcm.matrix.tobytes() == expected.matrix.tobytes()
            assert baseline.tfcm.sample_counts == expected.sample_counts

    def test_histogram_range_wider_than_a_chunk(self):
        cfg = tiny_cfg(duration_s=0.6, hist_bin_ps=30_000_000,
                       hist_range_ps=300_000_000_000)
        cfg.source = dataclasses.replace(cfg.source, pair_rate_hz=2e4)
        fmt = cfg.format
        windows = ((end, session.security_subset(w, cfg, fmt))
                   for end, w in simulate_windows(cfg))
        hists = session.four_basis_histograms(windows, cfg.hist_bin_ps,
                                              cfg.hist_range_ps, cfg.duration_s)
        assert hists.tt.total > 10**4
        assert_same_histograms(hists, whole_stream_histograms(dq.simulate_session(cfg), cfg))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300),
           span_ps=st.integers(1, 10**6), n_cuts=st.integers(0, 6),
           bin_ps=st.integers(1, 1000), half_bins=st.integers(1, 400))
    @example(seed=1, n=300, span_ps=10**6, n_cuts=6, bin_ps=1000, half_bins=400)
    @example(seed=2, n=300, span_ps=1000, n_cuts=6, bin_ps=1, half_bins=1)
    def test_windows_bin_like_the_joined_streams(self, seed, n, span_ps, n_cuts,
                                                 bin_ps, half_bins):
        # ranges from one bin to far wider than the windows, which may be
        # empty or cut through ties
        rng = np.random.default_rng(seed)
        tags = SessionTags(*(TagStream(np.sort(rng.integers(0, span_ps, n)), ch, span_ps)
                             for ch in Channel))
        cuts = np.sort(rng.integers(0, span_ps + 1, n_cuts)).tolist()
        range_ps = bin_ps * half_bins
        whole = FourBasisHistograms(**{
            a[0] + b[0]: coincidence_histogram(getattr(tags, a), getattr(tags, b),
                                               bin_ps, (-range_ps, range_ps), 1.0)
            for a in ("t1", "f1") for b in ("t2", "f2")})
        for windows in (window_list(tags, cuts), [(math.inf, tags)]):
            assert_same_histograms(
                session.four_basis_histograms(windows, bin_ps, range_ps, 1.0), whole)

    def test_baseline_peak_memory_does_not_grow_with_its_length(self):
        peaks = []
        for seconds in (1.0, 2.0):
            cfg = tiny_cfg()
            cfg.baseline_duration_s = seconds
            tracemalloc.start()
            try:
                session.compute_baseline(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.15 * peaks[0]


@pytest.fixture(scope="module")
def mini():
    cfg = tiny_cfg(duration_s=0.5)
    tags = align_bob(dq.simulate_session(cfg), 0)
    table = sweep(cfg, tau_list=(120, 160), i_list=(3,), n_list=(4,), tags=tags)
    return cfg, tags, table


class TestSweep:
    def test_single_point_matches_run_experiment(self, mini):
        cfg, tags, table = mini
        rep = run_experiment(cfg)
        row = next(r for r in table if r.tau_ps == 160)
        assert row.raw_rate_bps == pytest.approx(rep.raw_rate_bps)
        assert row.qber == pytest.approx(rep.qber_symbol)

    def test_row_count_and_csv(self, mini):
        _, _, table = mini
        assert len(table) == 2
        csv = table.to_csv()
        assert csv.startswith("#")
        assert len(csv.strip().splitlines()) == 3

    def test_empty_grid_rejected(self, mini):
        cfg, _, _ = mini
        with pytest.raises(ValueError):
            sweep(cfg, tau_list=())

    def test_abort_rows_marked(self):
        cfg = tiny_cfg(duration_s=0.05)
        tags = align_bob(dq.simulate_session(cfg), 0)
        # absurd format: frame wider than the session -> no kept frames
        table = sweep(cfg, tau_list=(10**9,), i_list=(3,), n_list=(4,), tags=tags)
        assert len(table) == 1
        assert table.rows[0].status.startswith("aborted:")


def per_point_rows(config, tags, formats, chi):
    """Reference sweep: split, sift and score each grid point on its own."""
    seed = split_seed(config)
    rows = []
    for fmt in formats:
        n, i_bins, tau = fmt.n_bits, fmt.bins_per_slot, fmt.bin_width_ps
        _, key_t1 = split_security_fraction(tags.t1, config.security_fraction,
                                            seed, fmt)
        _, key_t2 = split_security_fraction(tags.t2, config.security_fraction,
                                            seed, fmt)
        res = run_sifting(key_t1, key_t2, fmt)
        if res.kept_frames == 0:
            rows.append(SweepRow(n, i_bins, tau, 0.0, None, None, None,
                                 "aborted:no-kept-frames"))
            continue
        di = sr = None
        if chi is not None and res.kept_frames >= 1000:
            i_ab = mutual_information(res.key_a, res.key_b, fmt.slots_per_frame)
            di, _ = secret_fraction(i_ab, chi, NOMINAL_BETA)
            sr = (res.kept_frames / config.duration_s) * di
        rows.append(SweepRow(n, i_bins, tau,
                             n * res.kept_frames / config.duration_s,
                             qber(res.key_a, res.key_b), di, sr))
    return rows


SMALL_GRID = ((120, 160), (3,), (4,))


def grid_formats(tau_list, i_list, n_list):
    return [FrameFormat(n, i_bins, tau)
            for n in n_list for i_bins in i_list for tau in tau_list]


def sequential_chi(config, tags):
    """The session-level bound computed step after step, as one thread would."""
    try:
        _, tfcm = session.analyze_security(tags, config)
        return session.holevo_bound(tfcm, session.compute_baseline(config))
    except DoqkdError:
        return None


class TestSweepOverlap:
    """sweep shares its grid's frame widths among two threads while a
    worker simulates the baseline. The rows are those of the steps run in
    turn, whichever ends first; a failure on one side stops or discards the
    other and leaves no thread behind."""

    @pytest.fixture(scope="class")
    def expected(self, mini):
        cfg, tags, _ = mini
        formats = grid_formats(*SMALL_GRID)
        with_chi = per_point_rows(cfg, tags, formats, sequential_chi(cfg, tags))
        assert all(r.secret_rate_bps is not None for r in with_chi)
        return {"chi": dq.SweepTable(with_chi).to_csv(),
                "none": dq.SweepTable(per_point_rows(cfg, tags, formats, None)).to_csv()}

    @pytest.mark.parametrize("slow", ["compute_baseline", "_key_offsets"])
    def test_csv_independent_of_finish_order(self, mini, expected, monkeypatch, slow):
        cfg, tags, _ = mini
        step = getattr(session, slow)

        def late(*args):
            time.sleep(0.2)
            return step(*args)

        monkeypatch.setattr(session, slow, late)
        threads = threading.active_count()
        assert sweep(cfg, *SMALL_GRID, tags=tags).to_csv() == expected["chi"]
        assert threading.active_count() == threads

    def test_widths_finish_out_of_order(self, mini, expected, monkeypatch):
        cfg, tags, _ = mini
        first = grid_formats(*SMALL_GRID)[0].frame_width_ps
        key_offsets, ended = session._key_offsets, []

        def first_late(neighbours, config, fmt):
            if fmt.frame_width_ps == first:
                time.sleep(0.2)
            offsets = key_offsets(neighbours, config, fmt)
            ended.append(fmt.frame_width_ps)
            return offsets

        monkeypatch.setattr(session, "_key_offsets", first_late)
        assert sweep(cfg, *SMALL_GRID, tags=tags).to_csv() == expected["chi"]
        assert ended[-1] == first and len(ended) == 2

    def test_grid_failure_skips_widths_not_started(self, mini, monkeypatch):
        cfg, tags, _ = mini
        tau_list = tuple(range(40, 401, 20))  # 19 widths
        calls = []

        def fail(neighbours, config, fmt):
            calls.append(fmt)
            if len(calls) > 1:
                time.sleep(0.05)  # busy while the failure is raised
            raise RuntimeError("injected")

        monkeypatch.setattr(session, "_key_offsets", fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            sweep(cfg, tau_list, (3,), (4,), tags=tags)
        assert len(calls) <= session._GRID_THREADS + 1
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", ["compute_baseline", "analyze_security",
                                         "holevo_bound"])
    def test_estimation_error_leaves_rows_without_bound(self, mini, expected,
                                                        monkeypatch, failing):
        cfg, tags, _ = mini

        def fail(*args):
            raise EstimationError("injected")

        monkeypatch.setattr(session, failing, fail)
        threads = threading.active_count()
        assert sweep(cfg, *SMALL_GRID, tags=tags).to_csv() == expected["none"]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", ["compute_baseline", "analyze_security"])
    def test_other_errors_propagate(self, mini, monkeypatch, failing):
        cfg, tags, _ = mini

        def fail(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(session, failing, fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            sweep(cfg, *SMALL_GRID, tags=tags)
        assert threading.active_count() == threads

    # a grid failure is raised; without the session's estimate, the rows
    # carry no bound. Either way the baseline is not needed any more
    @pytest.mark.parametrize("failing, error", [("_key_offsets", RuntimeError),
                                                ("analyze_security", EstimationError)])
    def test_failure_stops_the_baseline(self, mini, expected, monkeypatch, failing,
                                        error):
        cfg, tags, _ = mini
        cfg = dataclasses.replace(cfg, baseline_duration_s=5.0)  # 21 windows
        drawn = BaselineWindows(monkeypatch)

        def fail(*args):
            drawn.fail()
            raise error("injected")

        monkeypatch.setattr(session, failing, fail)
        threads = threading.active_count()
        if error is RuntimeError:
            with pytest.raises(RuntimeError, match="injected"):
                sweep(cfg, *SMALL_GRID, tags=tags)
        else:
            assert sweep(cfg, *SMALL_GRID, tags=tags).to_csv() == expected["none"]
        assert drawn.before >= 1 and drawn.after <= 2
        assert threading.active_count() == threads

    def test_simulate_failure_stops_the_baseline(self, monkeypatch):
        cfg = tiny_cfg()
        cfg.baseline_duration_s = 5.0  # 21 windows
        drawn = BaselineWindows(monkeypatch)

        def fail(config, **kwargs):
            drawn.fail()
            raise RuntimeError("injected")

        monkeypatch.setattr(session, "simulate_session", fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="injected"):
            sweep(cfg, *SMALL_GRID)
        assert drawn.before >= 1 and drawn.after <= 2
        assert threading.active_count() == threads

    def test_simulated_dataset(self):
        cfg = tiny_cfg()
        cfg.channel = dataclasses.replace(cfg.channel, propagation_delay_ps=5 * 7680)
        tags = align_bob(dq.simulate_session(cfg), cfg.channel.propagation_delay_ps)
        rows = per_point_rows(cfg, tags, grid_formats(*SMALL_GRID),
                              sequential_chi(cfg, tags))
        assert rows[0].secret_rate_bps is not None
        threads = threading.active_count()
        assert sweep(cfg, *SMALL_GRID).rows == rows
        assert threading.active_count() == threads


class CountedBaselines:
    """Counts the ``compute_baseline`` calls made through the session module;
    ``done`` is set once one of them has returned a baseline."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.done = threading.Event()
        compute = session.compute_baseline

        def counted(config, stop=None):
            self.calls += 1
            baseline = compute(config, stop)
            self.done.set()
            return baseline

        monkeypatch.setattr(session, "compute_baseline", counted)


def baseline_of(cfg):
    """The baseline a run of ``cfg`` is given, and the threads running
    while it is fetched."""
    with session._beside_baseline(cfg) as (baseline, _):
        return baseline(), threading.active_count()


class TestBaselineCache:
    """The baseline a successful run completed is kept, one at a time; a
    later run with the same baseline config reuses it, and reads as a cold
    run would."""

    def test_hit_reads_as_a_cold_run(self, monkeypatch):
        counted = CountedBaselines(monkeypatch)
        cold = run_experiment(tiny_cfg())
        hit = run_experiment(tiny_cfg())
        assert counted.calls == 1
        assert hit.secret_key == cold.secret_key
        assert hit.canonical_bytes() == cold.canonical_bytes()

    @pytest.mark.parametrize("seed", [0, 0x5EEDBA5E, 2**64 - 1])
    def test_baseline_seed_is_not_the_session_seed(self, seed):
        # a baseline drawn from the session's own streams would correlate
        # with the session it characterises
        assert tiny_cfg(seed=seed).baseline_config().seed != seed

    def test_sweep_twice_simulates_one_baseline(self, mini, monkeypatch):
        cfg, tags, _ = mini
        counted = CountedBaselines(monkeypatch)
        first = sweep(cfg, *SMALL_GRID, tags=tags)
        second = sweep(cfg, *SMALL_GRID, tags=tags)
        assert counted.calls == 1
        assert all(r.secret_rate_bps is not None for r in first)
        assert second.to_csv() == first.to_csv()

    def test_failed_run_keeps_no_baseline(self, monkeypatch):
        counted = CountedBaselines(monkeypatch)
        simulate = session.simulate_session

        def fail(config, **kwargs):
            assert counted.done.wait(30)  # the baseline has completed
            raise RuntimeError("injected")

        monkeypatch.setattr(session, "simulate_session", fail)
        with pytest.raises(StageError):
            run_experiment(tiny_cfg())
        monkeypatch.setattr(session, "simulate_session", simulate)
        run_experiment(tiny_cfg())
        assert counted.calls == 2

    def test_keeps_one_baseline(self, monkeypatch):
        made = []

        def fake(config, stop=None):
            made.append(config.seed)
            return ("baseline", config.seed)

        monkeypatch.setattr(session, "compute_baseline", fake)
        assert baseline_of(tiny_cfg(seed=1))[0] == ("baseline", 1)
        threads = threading.active_count()
        assert baseline_of(tiny_cfg(seed=1)) == (("baseline", 1), threads)
        assert baseline_of(tiny_cfg(seed=2))[0] == ("baseline", 2)
        assert baseline_of(tiny_cfg(seed=1))[0] == ("baseline", 1)
        assert made == [1, 2, 1]  # the hit started no worker and simulated none

    def test_concurrent_runs(self, monkeypatch):
        # more threads than cores, switching often, over three configs: each
        # run gets its own config's baseline
        def fake(config, stop=None):
            return ("baseline", config.seed)

        monkeypatch.setattr(session, "compute_baseline", fake)
        configs = [tiny_cfg(seed=k) for k in range(3)]
        wrong = []

        def runs(j):
            for i in range(60):
                cfg = configs[(i * (j + 1)) % len(configs)]
                if baseline_of(cfg)[0] != ("baseline", cfg.seed):
                    wrong.append(cfg.seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=runs, args=(j,)) for j in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []


def property_tags(seed, n_a, n_b, span_ps, dur_a, dur_b):
    """T1 uniform over the span; T2 jittered copies of some T1 tags plus
    uniform noise. Durations: 0, the span, or half of it."""
    rng = np.random.default_rng(seed)
    t1 = np.sort(rng.integers(0, span_ps, n_a))
    partners = rng.permutation(t1)[:n_b]
    t2 = np.concatenate((partners + rng.integers(-2, 3, partners.size),
                         rng.integers(0, span_ps, n_b - partners.size)))
    t2 = np.sort(np.maximum(t2, 0))
    dur = {"zero": 0, "span": span_ps, "half": span_ps // 2}
    return SessionTags(TagStream(t1, Channel.T1, dur[dur_a]),
                       TagStream(np.empty(0, np.int64), Channel.F1, 0),
                       TagStream(t2, Channel.T2, dur[dur_b]),
                       TagStream(np.empty(0, np.int64), Channel.F2, 0))


durations = st.sampled_from(["zero", "span", "half"])
small_grid = st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)


class TestSweepKernel:
    """The per-frame-width sweep equals the per-point split-and-sift path."""

    @given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(0, 4000),
           n_b=st.integers(0, 4000), span_ps=st.integers(1, 10**7),
           dur_a=durations, dur_b=durations,
           fraction=st.sampled_from([0.05, 0.3, 0.7]),
           split=st.integers(0, 2**63 - 1),
           tau_list=st.lists(st.integers(1, 60) | st.just(10**7), min_size=1,
                             max_size=3, unique=True),
           i_list=small_grid, n_list=small_grid,
           chi=st.sampled_from([None, 0.25]))
    # equal frame widths: (1,2,8) and (2,2,4) both give 32 ps
    @example(seed=1, n_a=3000, n_b=3000, span_ps=10**6, dur_a="span",
             dur_b="span", fraction=0.05, split=7, tau_list=[8, 4],
             i_list=[2], n_list=[1, 2], chi=0.25)
    # one empty side, no recorded duration
    @example(seed=2, n_a=2000, n_b=0, span_ps=10**5, dur_a="zero",
             dur_b="zero", fraction=0.3, split=8, tau_list=[5], i_list=[1, 3],
             n_list=[2], chi=None)
    # a frame wider than the session keeps no frames
    @example(seed=3, n_a=500, n_b=500, span_ps=10**6, dur_a="span",
             dur_b="half", fraction=0.3, split=9, tau_list=[10**7, 20],
             i_list=[2], n_list=[3], chi=0.25)
    # a frame nearly as wide as int64: a time plus that width wraps as int64
    @example(seed=4, n_a=2000, n_b=2000, span_ps=10**6, dur_a="zero",
             dur_b="zero", fraction=0.3, split=5, tau_list=[(2**63 - 1) // 2, 3],
             i_list=[1], n_list=[1], chi=0.25)
    def test_matches_per_point_path(self, seed, n_a, n_b, span_ps, dur_a,
                                    dur_b, fraction, split, tau_list, i_list,
                                    n_list, chi):
        tags = property_tags(seed, n_a, n_b, span_ps, dur_a, dur_b)
        cfg = paper_default_config(seed=split)
        cfg.security_fraction = fraction
        cfg.duration_s = 1e-3
        formats = [FrameFormat(n, i_bins, tau)
                   for n in n_list for i_bins in i_list for tau in tau_list]

        def analyze_security(*_):
            if chi is None:
                raise EstimationError("no covariance estimate")
            return None, None

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(session, "analyze_security", analyze_security)
            mp.setattr(session, "compute_baseline", lambda config, stop=None: None)
            mp.setattr(session, "holevo_bound", lambda tfcm, baseline: chi)
            table = sweep(cfg, tuple(tau_list), tuple(i_list), tuple(n_list),
                          tags=tags)
        assert table.rows == per_point_rows(cfg, tags, formats, chi)


class TestOptimize:
    def _table(self):
        rows = [
            dq.SweepRow(4, 3, 120, 100.0, 0.04, None, None),
            dq.SweepRow(4, 3, 160, 120.0, 0.048, None, None),
            dq.SweepRow(4, 4, 160, 120.0, 0.046, None, None),
            dq.SweepRow(4, 3, 200, 130.0, 0.056, None, None),
            dq.SweepRow(5, 3, 120, 90.0, 0.08, None, None),
        ]
        return dq.SweepTable(rows)

    def test_cap_filters_and_argmax(self):
        out = optimize(tiny_cfg(), 0.05, n_list=(4, 5), table=self._table())
        four = next(e for e in out if e.n_bits == 4)
        assert four.feasible and four.raw_rate_bps == 120.0
        # tie at raw=120 broken toward smaller I (same tau)
        assert four.tau_ps == 160 and four.bins_per_slot == 3
        five = next(e for e in out if e.n_bits == 5)
        assert not five.feasible

    def test_unconstrained_picks_max_tau(self):
        out = optimize(tiny_cfg(), 0.4999, n_list=(4,), table=self._table())
        assert out[0].tau_ps == 200

    def test_bad_cap(self):
        with pytest.raises(ValueError):
            optimize(tiny_cfg(), 0.0, table=self._table())
