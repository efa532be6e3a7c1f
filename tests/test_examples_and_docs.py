"""Smoke tests that the examples and documented API actually run.

These keep the deliverables honest: every example script must execute
end-to-end (scaled down via monkeypatched generators where needed), and
the README quickstart snippet must be valid code.
"""

import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def _run_example(name, monkeypatch):
    """Execute an example as __main__ with shrunken datasets."""
    import repro
    import repro.generators.synthetic as synth

    # shrink every generator so examples run in seconds
    originals = {
        "uniform": synth.uniform,
        "visual_var": synth.visual_var,
    }

    def small(fn, cap):
        def wrapper(n, d, seed=0, **kw):
            return fn(min(n, cap), d, seed=seed, **kw)

        return wrapper

    monkeypatch.setattr(repro, "uniform", small(originals["uniform"], 2000))
    monkeypatch.setattr(repro, "visual_var", small(originals["visual_var"], 1500))

    def tiny_dataset(name, seed=0):
        # rewrite the size suffix down
        parts = name.split("-")
        return synth.DATASET_KINDS[parts[1].upper()](1500, int(parts[0][0]), seed=seed)

    monkeypatch.setattr(repro, "dataset", tiny_dataset)
    import repro.generators as gen
    from repro.generators.scans import thai_statue as real_thai

    monkeypatch.setattr(
        gen, "thai_statue", lambda n=1000, seed=7: real_thai(min(n, 1500), seed=seed)
    )
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "spatial_graphs.py",
        "dynamic_points.py",
        "clustering_pipeline.py",
        "spatial_analytics.py",
    ],
)
def test_example_runs(script, monkeypatch, capsys):
    _run_example(script, monkeypatch)
    out = capsys.readouterr().out
    assert len(out) > 0


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        import repro

        pts = repro.dataset("2D-U-2K", seed=0)
        hull = repro.convex_hull(pts)
        ball = repro.smallest_enclosing_ball(pts)
        tree = repro.KDTree(pts)
        dists, ids = tree.knn(pts.coords[:10], k=5)
        inside = tree.range_query_box([0, 0], [50, 50])
        bdl = repro.BDLTree(dim=2)
        bdl.insert(pts.coords)
        bdl.erase(pts.coords[:100])
        edges, w = repro.emst(pts.coords[:500])
        labels = repro.dbscan(pts.coords, eps=2.0, min_pts=8)
        g = repro.gabriel_graph(pts.coords[:300]).to_networkx()
        assert len(hull) >= 3
        assert ball.radius > 0
        assert dists.shape == (10, 5)
        assert bdl.size() == len(pts) - 100
        assert len(edges) == 499
        assert len(labels) == len(pts)
        assert g.number_of_nodes() == 300

    def test_all_documented_exports_exist(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_submodule_all_exports_exist(self):
        import importlib

        for mod in (
            "repro.parlay",
            "repro.core",
            "repro.kdtree",
            "repro.bdl",
            "repro.hull",
            "repro.seb",
            "repro.wspd",
            "repro.emst",
            "repro.closestpair",
            "repro.delaunay",
            "repro.graphs",
            "repro.spatialsort",
            "repro.clustering",
            "repro.generators",
            "repro.bench",
            "repro.obs",
            "repro.serve",
            "repro.cluster",
        ):
            m = importlib.import_module(mod)
            for name in getattr(m, "__all__", []):
                assert hasattr(m, name), f"{mod}.{name} missing"

    def test_public_functions_have_docstrings(self):
        import repro

        undocumented = [
            name
            for name in repro.__all__
            if callable(getattr(repro, name)) and not getattr(repro, name).__doc__
        ]
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestCLIHelp:
    """The documented subcommands and flags exist in the parser."""

    def test_top_level_subcommands(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        for cmd in ("generate", "hull", "knn", "serve-replay",
                    "cluster-bench", "profile"):
            assert cmd in text, f"subcommand {cmd} missing from help"

    def test_shards_flag_on_knn_and_serve_replay(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        for cmd in ("knn", "serve-replay"):
            assert "--shards" in sub.choices[cmd].format_help(), cmd
        bench_help = sub.choices["cluster-bench"].format_help()
        for flag in ("--shards", "--workers", "--json-out"):
            assert flag in bench_help, flag


class TestNoPathKnobs:
    """Queries, builds and hulls pick their own execution path: the
    retired selection knobs must not come back."""

    KNOBS = ("REPRO_QUERY_ENGINE", "REPRO_BUILD_ENGINE", "REPRO_HULL_FILTER",
             "--engine", "--build-engine", "build_engine")

    @staticmethod
    def _files():
        yield from sorted((REPO / "src").rglob("*.py"))
        yield REPO / "README.md"
        yield REPO / "DESIGN.md"
        skills = REPO / ".claude" / "skills"
        if skills.is_dir():
            yield from sorted(p for p in skills.rglob("*") if p.is_file())

    def test_knobs_absent_from_source_and_docs(self):
        hits = [
            f"{path.relative_to(REPO)}:{no}: {knob}"
            for path in self._files()
            for no, line in enumerate(path.read_text().splitlines(), 1)
            for knob in self.KNOBS
            if knob in line
        ]
        assert not hits, "retired knobs still mentioned:\n" + "\n".join(hits)

    def test_no_public_signature_takes_a_path_choice(self):
        import importlib
        import inspect

        banned = {"engine", "build_engine", "prefilter"}
        bad = []
        for mod in ("repro", "repro.kdtree", "repro.bdl", "repro.cluster",
                    "repro.hull", "repro.clustering", "repro.graphs"):
            m = importlib.import_module(mod)
            for name in m.__all__:
                obj = getattr(m, name)
                members = [obj]
                if inspect.isclass(obj):
                    members += [f for k, f in vars(obj).items()
                                if callable(f) and not k.startswith("_")]
                for fn in members:
                    try:
                        params = inspect.signature(fn).parameters
                    except (TypeError, ValueError):
                        continue
                    if banned & set(params):
                        bad.append(f"{mod}.{name}")
        assert not bad, f"path-choice parameters on: {sorted(set(bad))}"

    def test_knn_help_lists_no_engine_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if a.__class__.__name__ == "_SubParsersAction"
        )
        assert "engine" not in sub.choices["knn"].format_help()


class TestOneDistanceKernel:
    """The order in which squares are summed is decided once, in
    ``repro.core.distance``: a squared norm written out anywhere else in
    ``src/repro`` could round differently and break a bitwise contract
    (walk vs frontier, view vs recompute)."""

    HOME = REPO / "src" / "repro" / "core" / "distance.py"
    IDIOMS = (
        # np.einsum("ij,ij->i", x, x)
        re.compile(r"einsum\(\s*(['\"])[^'\"]*\1\s*,\s*([\w.\[\]]+)\s*,\s*\2\s*\)"),
        # x @ x (but not x @ x.T or x @ y)
        re.compile(r"(?<![\w.\]])([A-Za-z_][\w.]*)\s*@\s*\1(?![\w.\[(])"),
        # (x * x).sum(...)
        re.compile(r"\(\s*([A-Za-z_][\w.]*)\s*\*\s*\1\s*\)\s*\.sum\("),
        # (...) ** 2).sum(...)
        re.compile(r"\*\*\s*2\s*\)\s*\.sum\("),
    )

    def test_idioms_are_caught(self):
        for line in ('np.einsum("ij,ij->i", diff, diff)', "float(d @ d)",
                     "(d * d).sum(axis=1)", "((a - b) ** 2).sum(axis=1)"):
            assert any(p.search(line) for p in self.IDIOMS), line
        for line in ('np.einsum("ij,ij->i", a, np.cross(b, c))',
                     "pts @ pts.T", "rel @ nrm", "bits @ (1 << k)"):
            assert not any(p.search(line) for p in self.IDIOMS), line

    def test_no_squared_norm_outside_the_kernel_module(self):
        hits = [
            f"{path.relative_to(REPO)}:{no}: {line.strip()}"
            for path in sorted((REPO / "src" / "repro").rglob("*.py"))
            if path != self.HOME
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if any(p.search(line) for p in self.IDIOMS)
        ]
        assert not hits, (
            "squared norms outside repro.core.distance:\n" + "\n".join(hits))
