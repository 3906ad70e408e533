import threading

import numpy as np
import pytest
from hypothesis import settings

import doqkd as dq
from doqkd import session
from doqkd.session import align_bob, analyze_security, compute_baseline, sweep

ACCEPT_SEED = 20260808

# property tests run a fixed, bounded set of examples: the same on every run,
# with no per-example time limit and no saved failures replayed
settings.register_profile("doqkd", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("doqkd")


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread alive it did not find."""
    before = set(threading.enumerate())
    yield
    extra = [t.name for t in threading.enumerate() if t not in before]
    assert not extra, f"threads left alive: {extra}"


@pytest.fixture(autouse=True)
def no_kept_baseline():
    """Run each test with no baseline kept from another, so runs that count
    baseline windows or fake ``compute_baseline`` simulate their own, and
    no faked baseline outlives its test."""
    session._kept_baseline = None
    yield
    session._kept_baseline = None


@pytest.fixture(scope="session")
def paper_cfg():
    return dq.paper_default_config()


@pytest.fixture(scope="session")
def fast_cfg():
    cfg = dq.paper_default_config()
    cfg.duration_s = 2.5
    cfg.baseline_duration_s = 2.5
    cfg.seed = ACCEPT_SEED
    return cfg


@pytest.fixture(scope="session")
def session25(fast_cfg):
    """One simulated 2.5 s paper-default session with security analysis."""
    tags = align_bob(dq.simulate_session(fast_cfg),
                     fast_cfg.channel.propagation_delay_ps)
    hists, tfcm = analyze_security(tags, fast_cfg)
    baseline = compute_baseline(fast_cfg)
    return {"cfg": fast_cfg, "tags": tags, "hists": hists, "tfcm": tfcm,
            "baseline": baseline}


@pytest.fixture(scope="session")
def sweep_table(session25):
    """Full default-grid sweep over the shared 2.5 s dataset."""
    cfg = session25["cfg"]
    return sweep(cfg, tags=session25["tags"])


@pytest.fixture(scope="session")
def code_0625():
    return dq.make_code(16384, 0.625, 1)
