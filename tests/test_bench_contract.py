"""The benchmark in ``perfbench/`` reaches into ``doqkd`` by name.

Its tracer wraps module attributes listed in ``tracer.WRAPPED`` and its
workloads call ``session`` functions directly. These tests fail when a
change renames or drops one of those names, instead of leaving the failure
to a traced benchmark run.
"""
import ast
from pathlib import Path

import pytest

from doqkd import session
from doqkd.simulate import paper_default_config, simulate_session

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_tracer_resolves_every_wrapped_attribute(perfbench_path):
    import tracer
    originals = [getattr(module, attr) for module, attr, _, _ in tracer.WRAPPED]
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert [getattr(module, attr) for module, attr, _, _ in tracer.WRAPPED] \
        == originals


def test_workloads_reach_existing_names(perfbench_path):
    import workloads  # noqa: F401  (its module-level doqkd imports resolve)
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "session"}
    assert names
    assert sorted(n for n in names if not hasattr(session, n)) == []


def test_analyze_security_returns_histograms_and_tfcm():
    cfg = paper_default_config()
    cfg.duration_s = 0.1
    tags = session.align_bob(simulate_session(cfg),
                             cfg.channel.propagation_delay_ps)
    out = session.analyze_security(tags, cfg)
    assert isinstance(out, tuple) and len(out) == 2
    hists, tfcm = out
    assert hists.tt.total > 0
    assert tfcm.matrix.shape == (4, 4)
