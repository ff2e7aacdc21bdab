import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import fjmedia
import fjmedia.graph as graph_module
from fjmedia import (CSV_COLUMNS, MODES, ExperimentConfig, GraphSpec,
                     config_from_manifest, rows_to_csv,
                     load_edge_list, run_experiment, sample_innate, write_edge_list)


def dreg_config(mode="equilibrium", **kw):
    base = dict(mode=mode, graph=GraphSpec(kind="dreg", n=40, d=4),
                alpha=1.0, beta=0.5, gamma=0.05, repetitions=3, base_seed=7)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# innate sampling


def test_sample_innate_sigma_zero_is_constant():
    s = sample_innate(10, 0.3, 0.0, seed=1)
    assert np.array_equal(s, np.full(10, 0.3))


def test_sample_innate_clips_to_box():
    s = sample_innate(1000, 2.0, 0.1, seed=2)
    assert np.all(s == 1.0)
    s = sample_innate(1000, -1.0, 0.1, seed=2)
    assert np.all(s == 0.0)


def test_sample_innate_mean_near_mu():
    # clipping is symmetric around mu = 0.5, so the mean survives it
    s = sample_innate(200_000, 0.5, math.sqrt(0.2), seed=3)
    assert abs(s.mean() - 0.5) <= 0.005
    assert s.min() >= 0.0 and s.max() <= 1.0


def test_sample_innate_deterministic():
    a = sample_innate(50, 0.5, 0.4, seed=9)
    b = sample_innate(50, 0.5, 0.4, seed=9)
    c = sample_innate(50, 0.5, 0.4, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_innate_validation():
    with pytest.raises(ValueError):
        sample_innate(0, 0.5, 0.1, seed=1)
    with pytest.raises(ValueError):
        sample_innate(5, 0.5, -0.1, seed=1)


# ---------------------------------------------------------------------------
# specs and config


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec(kind="file")
    with pytest.raises(ValueError, match="needs m$"):
        GraphSpec(kind="ba", n=10)
    with pytest.raises(ValueError, match="needs n and d$"):
        GraphSpec(kind="dreg")
    with pytest.raises(ValueError):
        GraphSpec(kind="erdos", n=10)
    # run_experiment reads a file graph, with its digest check
    with pytest.raises(ValueError, match="a file graph is read, not built"):
        GraphSpec(kind="file", path="net.edges").build(0)


def test_graph_spec_build():
    g = GraphSpec(kind="ba", n=30, m=2).build(seed=1)
    assert g.n == 30
    g = GraphSpec(kind="dreg", n=20, d=4).build(seed=1)
    assert g.stats.is_regular and g.stats.d_max == 4.0


def test_graph_spec_describe_keys():
    assert GraphSpec(kind="ba", n=30, m=2).describe() == [
        ("graph.kind", "ba"), ("graph.n", "30"), ("graph.m", "2")]
    assert GraphSpec(kind="dreg", n=20, d=4).describe() == [
        ("graph.kind", "dreg"), ("graph.n", "20"), ("graph.d", "4")]


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        dreg_config(mode="diffusion")
    with pytest.raises(ValueError):
        dreg_config(repetitions=0)
    for mu in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="innate_mu"):
            dreg_config(innate_mu=mu)
    for var in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="innate_var"):
            dreg_config(innate_var=var)
    assert dreg_config(innate_mu=1.5).innate_mu == 1.5  # clipped when sampled
    with pytest.raises(ValueError):
        dreg_config(alpha=2.0)
    for tol in (float("nan"), float("inf"), 0.0, -1.0, 1.0):
        with pytest.raises(ValueError, match="tol"):
            dreg_config(tol=tol)
    with pytest.raises(ValueError, match="seed"):
        dreg_config(base_seed=-1)
    assert dreg_config(innate_var=0.04).innate_sigma == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# the package surface

PUBLIC_NAMES = {
    "Graph", "GraphStats", "gen_barabasi_albert", "gen_random_regular",
    "load_edge_list", "neighbor_sum", "write_edge_list",
    "ConvergenceError", "DiagPlusLaplacianOperator", "SolveReport", "solve_spd",
    "MediaAssignment", "MediaConfig", "MediaSystem", "SourceOpinions", "SumBounds",
    "assign_media", "build_zeta", "equilibrium_with_media", "opinion_vector",
    "source_opinions", "sum_bounds", "truncated_lower_bound", "truncated_regular_sum",
    "fj_equilibrium", "fj_step",
    "PeriodRecord", "PeriodTrajectory", "STOP_CAUSES", "StopCriteria",
    "alpha_half_limit", "analytic_summary", "ell_star", "run_periods",
    "nonstubborn_equilibrium", "nonstubborn_sum_bound",
    "CSV_COLUMNS", "ExperimentConfig", "GraphSpec", "MODES", "RunManifest",
    "config_from_manifest", "rows_to_csv", "run_experiment", "sample_innate",
    "__version__",
}


def test_package_exports_each_modules_public_names():
    assert len(PUBLIC_NAMES) == 46
    assert sorted(fjmedia.__all__) == sorted(PUBLIC_NAMES)  # and no name twice
    star = {}
    exec("from fjmedia import *", star)
    assert set(star) - {"__builtins__"} == PUBLIC_NAMES
    assert MODES == ("periods", "equilibrium", "nonstubborn", "bounds") == tuple(CSV_COLUMNS)


# ---------------------------------------------------------------------------
# run_experiment


def test_run_is_deterministic():
    m1, r1 = run_experiment(dreg_config())
    m2, r2 = run_experiment(dreg_config())
    assert m1.text() == m2.text()
    assert rows_to_csv("equilibrium", r1) == rows_to_csv("equilibrium", r2)
    m3, _ = run_experiment(dreg_config(base_seed=8))
    assert m1.text() != m3.text()


def test_manifest_records_everything_needed():
    manifest, _ = run_experiment(dreg_config())
    for key in ("format", "version", "mode", "graph.kind", "graph.n",
                "graph.d", "alpha", "beta", "gamma", "innate_mu",
                "innate_var", "innate_sigma", "repetitions", "base_seed",
                "tol", "rep0.seed", "rep0.graph_seed", "rep0.innate_seed",
                "rep0.assign_seed", "rep0.graph.n", "rep0.graph.edges",
                "rep0.graph.is_regular", "rep0.count_M", "rep2.seed"):
        assert manifest.get(key) is not None, key
    assert manifest.get("format") == "fjmedia-run/1"
    assert manifest.get("rep0.seed") == "7"
    assert manifest.get("rep1.seed") == "8"
    assert manifest.get("rep0.graph.is_regular") == "true"
    # no timestamps or hostnames anywhere
    assert "time" not in manifest.text().lower()


def test_periods_manifest_extras():
    manifest, _ = run_experiment(dreg_config(mode="periods", max_periods=3,
                                             epsilon=0.01))
    assert manifest.get("max_periods") == "3"
    assert manifest.get("epsilon") == "0.01"
    assert manifest.get("fixed_point_tol") == "1e-10"
    # equilibrium mode carries no period keys
    m2, _ = run_experiment(dreg_config())
    assert m2.get("max_periods") is None
    assert m2.get("epsilon") is None


def test_equilibrium_rows_bracket_measured_sum():
    _, rows = run_experiment(dreg_config())
    assert len(rows) == 3
    for row in rows:
        assert set(row) == set(CSV_COLUMNS["equilibrium"])
        assert not row["truncated"]
        assert row["lower"] - 1e-8 <= row["sum_z"] <= row["upper"] + 1e-8
        # regular graph: bracket collapses onto the exact value
        assert row["exact_if_regular"] == pytest.approx(row["sum_z"], abs=1e-6)


def test_equilibrium_truncated_rows():
    config = dreg_config(innate_mu=0.99, innate_var=0.0, gamma=0.1)
    _, rows = run_experiment(config)
    for row in rows:
        assert row["truncated"]
        assert row["lower"] is None and row["upper"] is None
        assert row["exact_if_regular"] == pytest.approx(row["sum_z"], abs=1e-6)


def test_periods_rows_shape():
    _, rows = run_experiment(dreg_config(mode="periods", max_periods=4,
                                         epsilon=0.01))
    by_rep = {}
    for row in rows:
        by_rep.setdefault(row["rep"], []).append(row)
    assert set(by_rep) == {0, 1, 2}
    for rep_rows in by_rep.values():
        assert [r["period"] for r in rep_rows] == list(range(len(rep_rows)))
        assert len({r["stop_cause"] for r in rep_rows}) == 1
        assert rep_rows[0]["sum_z"] > 0


def test_nonstubborn_rows_respect_bound():
    _, rows = run_experiment(dreg_config(mode="nonstubborn"))
    for row in rows:
        assert row["sum_z"] <= row["bound"] + 1e-8
        assert row["z_M_star"] <= 1.0 + 1e-12
        assert row["s_M"] <= 1.0


def test_bounds_mode_is_formula_only():
    _, rows = run_experiment(dreg_config(mode="bounds"))
    for row in rows:
        assert set(row) == set(CSV_COLUMNS["bounds"])
        assert row["lower"] <= row["exact_if_regular"] <= row["upper"]
        assert row["ell_star"] > 0  # regular, alpha = 1 > 1/2


def test_bounds_mode_skips_ell_star_at_alpha_half():
    _, rows = run_experiment(dreg_config(mode="bounds", alpha=0.5))
    for row in rows:
        assert row["ell_star"] is None
        assert row["exact_if_regular"] == pytest.approx(row["sum_s"], rel=1e-12)


def test_failing_repetition_is_identified():
    config = dreg_config(graph=GraphSpec(kind="dreg", n=4, d=5))
    with pytest.raises(ValueError, match="repetition 0"):
        run_experiment(config)


# ---------------------------------------------------------------------------
# CSV rendering


def test_csv_header_and_formats():
    text = rows_to_csv("equilibrium", [
        {"rep": 0, "sum_s": 0.1, "sum_z": 1.5, "lower": None, "upper": None,
         "exact_if_regular": None, "truncated": True}])
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS["equilibrium"])
    assert lines[1] == "0,0.10000000000000001,1.5,,,,true"
    assert text.endswith("\n") and "\r" not in text


def test_csv_floats_round_trip():
    val = 1.5080434782608694
    text = rows_to_csv("bounds", [
        {"rep": 0, "sum_s": val, "lower": val, "upper": val,
         "exact_if_regular": val, "ell_star": None}])
    cell = text.split("\n")[1].split(",")[1]
    assert float(cell) == val


# ---------------------------------------------------------------------------
# output files and manifest round trip


def test_output_files_written(tmp_path):
    out = tmp_path / "run.csv"
    config = dreg_config(output=str(out))
    manifest, rows = run_experiment(config)
    man_path = tmp_path / "run.csv.manifest"
    assert out.exists() and man_path.exists()
    assert out.read_text() == rows_to_csv("equilibrium", rows)
    assert man_path.read_text() == manifest.text()
    assert b"\r" not in out.read_bytes()


def test_output_failure_leaves_nothing(tmp_path):
    config = dreg_config(output=str(tmp_path / "missing_dir" / "run.csv"))
    with pytest.raises(OSError):
        run_experiment(config)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_manifest_write_removes_the_csv(tmp_path):
    # the CSV is written first; a manifest path that is a directory fails
    # the second write, and the CSV goes with it
    out = tmp_path / "run.csv"
    (tmp_path / "run.csv.manifest").mkdir()
    with pytest.raises(OSError):
        run_experiment(dreg_config(output=str(out)))
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv.manifest"]


def _edge_file(tmp_path):
    path = tmp_path / "net.edges"
    write_edge_list(*graph_module._ba_edges(25, 2, 4), 1.0, str(path))
    return path


@pytest.mark.parametrize("make_spec", [
    lambda tmp_path: GraphSpec(kind="ba", n=30, m=2),
    lambda tmp_path: GraphSpec(kind="dreg", n=40, d=4),
    lambda tmp_path: GraphSpec(kind="file", path=str(_edge_file(tmp_path))),
], ids=["ba", "dreg", "file"])
def test_manifest_round_trip_reproduces_run(tmp_path, make_spec):
    config = dreg_config(mode="periods", graph=make_spec(tmp_path), max_periods=5,
                         epsilon=0.01)
    manifest, rows = run_experiment(config)
    rebuilt = config_from_manifest(manifest.text())
    manifest2, rows2 = run_experiment(rebuilt)
    assert manifest2.text() == manifest.text()
    assert rows_to_csv("periods", rows2) == rows_to_csv("periods", rows)


def test_manifest_round_trip_file_graph(tmp_path):
    path = _edge_file(tmp_path)
    config = ExperimentConfig(mode="equilibrium",
                              graph=GraphSpec(kind="file", path=str(path)),
                              alpha=0.8, beta=0.3, gamma=0.02, repetitions=2)
    manifest, rows = run_experiment(config)
    text = manifest.text()
    assert manifest.get("graph.path") == str(path)
    assert manifest.get("graph.sha256") == hashlib.sha256(path.read_bytes()).hexdigest()
    assert text.index("graph.sha256 =") < text.index("rep0.")
    rebuilt = config_from_manifest(text)
    assert rebuilt.graph.sha256 == manifest.get("graph.sha256")
    manifest2, rows2 = run_experiment(rebuilt)
    assert manifest2.text() == text
    assert rows_to_csv("equilibrium", rows2) == rows_to_csv("equilibrium", rows)
    # a manifest without the digest line still reruns
    unchecked = "".join(line for line in text.splitlines(keepends=True)
                        if not line.startswith("graph.sha256"))
    assert run_experiment(config_from_manifest(unchecked))[0].text() == text
    # the file changed after the run: the rerun refuses it before loading
    with path.open("a") as fh:
        fh.write("# edited\n")
    with pytest.raises(ValueError, match="sha256") as exc_info:
        run_experiment(rebuilt)
    assert str(path) in str(exc_info.value)


def test_file_graph_is_read_once_and_hashed_as_parsed(tmp_path, monkeypatch, opened):
    # one open of the path per run: the digest names the bytes the parser
    # got, and a file edited after the run is refused before any parse
    path = _edge_file(tmp_path)
    opened.clear()  # writing the file opened it
    parsed, real_parse_table = [], graph_module._parse_table

    def spying_parse_table(data):
        parsed.append(data)
        return real_parse_table(data)

    monkeypatch.setattr(graph_module, "_parse_table", spying_parse_table)
    config = ExperimentConfig(mode="equilibrium",
                              graph=GraphSpec(kind="file", path=str(path)),
                              alpha=0.8, beta=0.3, gamma=0.02, repetitions=2)
    manifest, _ = run_experiment(config)
    assert opened == [str(path)]
    assert [hashlib.sha256(d).hexdigest() for d in parsed] == [manifest.get("graph.sha256")]

    with path.open("a") as fh:
        fh.write("# edited\n")
    opened.clear()
    parsed.clear()
    with pytest.raises(ValueError, match="the file changed"):
        run_experiment(config_from_manifest(manifest.text()))
    assert opened == [str(path)]
    assert parsed == []


def _circulant_file(path, header, middle, newline):
    # 100 000 unit-weight "u v" lines: a 20-regular circulant on 10 000
    # nodes, ids and lines shuffled, under an optional comment header and
    # with optional text between the two halves of the edges
    n, m = 10_000, 100_000
    rng = np.random.default_rng(5)
    u = np.repeat(np.arange(n), 10)
    v = (u + np.tile(np.arange(1, 11), n)) % n
    perm, order = rng.permutation(n), rng.permutation(m)
    with open(path, "w", encoding="ascii", newline=newline) as fh:
        edges = np.column_stack([perm[u][order], perm[v][order]])
        fh.write(header)
        np.savetxt(fh, edges[:m // 2], fmt="%d")
        fh.write(middle)
        np.savetxt(fh, edges[m // 2:], fmt="%d")
    return n, m


_HEADER = "# a 20-regular circulant\n# 100000 edges\n"


_MIDDLE = "\n# the second half\n"  # the skipped-line map then scans every line


@pytest.mark.parametrize("header, middle, newline", [
    ("", "", "\n"), (_HEADER, "", "\n"), (_HEADER, _MIDDLE, "\n"), (_HEADER, _MIDDLE, "\r\n"),
    (_HEADER, "", "\r"), (_HEADER, _MIDDLE, "\r"),
], ids=["plain", "comment header", "lines skipped among the edges", "CRLF, lines skipped",
        "lone CR, comment header", "lone CR, lines skipped"])
def test_loading_a_file_graph_holds_no_bytes_and_no_ones(tmp_path, header, middle, newline):
    # the ingest peak is the graph's build from the int32 labels (8 bytes
    # per edge): the int64 sort keys (16) and their int32 copy (8).  The
    # file's bytes (about 10 per edge here) and the table (16) go before
    # it; when lines are skipped among the edges, their scan holds one
    # int64 per line beside them (8), which stays below the build's peak.
    # The graph keeps the head of int32 ids, 8 bytes per edge, and neither
    # its edge arrays nor its unit weights, which are one scalar 1.0.  Each
    # bound allows 12 int64 per node at the peak and 2 kept beside them (the
    # degree): the file's bytes, its raw bytes kept beside their LF-only
    # copy, the table's int64 ids, an array of ones (8), a scan that holds
    # a second per-line array (8) or a kept edge array breaks it
    path = tmp_path / "circulant.edges"
    n, m = _circulant_file(path, header, middle, newline)
    config = ExperimentConfig(mode="bounds", graph=GraphSpec(kind="file", path=str(path)),
                              alpha=1.0, beta=0.025, gamma=0.01, repetitions=1)
    run_experiment(config)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        graph = load_edge_list(path)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert graph.m == m and graph.n == n
    assert peak <= 32 * m + 96 * n, f"ingest peak {peak / m:.1f} bytes per edge"
    assert kept <= 8 * m + 16 * n, f"graph keeps {kept / m:.1f} bytes per edge"


@pytest.mark.parametrize("key", ["mode", "graph.kind", "graph.n", "graph.d", "graph.path",
                                 "alpha", "beta", "gamma"])
def test_manifest_without_a_required_line_is_refused(tmp_path, key):
    graph = (GraphSpec(kind="file", path=str(_edge_file(tmp_path))) if key == "graph.path"
             else GraphSpec(kind="dreg", n=40, d=4))
    text = run_experiment(dreg_config(graph=graph, repetitions=1))[0].text()
    edited = "".join(line for line in text.splitlines(keepends=True)
                     if not line.startswith(f"{key} ="))
    assert edited != text
    with pytest.raises(ValueError, match=f"^manifest lacks {key}$"):
        config_from_manifest(edited)


def test_manifest_round_trip_epsilon_none(tmp_path):
    # epsilon left at the 10/n default still reruns identically
    config = dreg_config(mode="periods", max_periods=3)
    manifest, rows = run_experiment(config)
    assert manifest.get("epsilon") == _fmt_float(10.0 / 40.0)
    manifest2, _ = run_experiment(config_from_manifest(manifest.text()))
    assert manifest2.text() == manifest.text()


def test_manifest_blank_lines_and_lines_without_equals_are_skipped():
    text = run_experiment(dreg_config(repetitions=1))[0].text()
    padded = "\n   \n" + text.replace("mode =", "a line with no equals sign\n\nmode =")
    assert padded.count("\n") == text.count("\n") + 4
    assert config_from_manifest(padded) == config_from_manifest(text)


@pytest.mark.parametrize("value", ["", "1e-12"])
def test_manifest_with_another_fixed_point_tol_is_refused(value):
    # every run stops at 1e-10; 0.1.8 wrote an empty value for no fixed-point
    # stop, and rerunning either manifest would change the stop rule
    text = run_experiment(dreg_config(mode="periods", max_periods=3))[0].text()
    assert "fixed_point_tol = 1e-10\n" in text
    edited = text.replace("fixed_point_tol = 1e-10", f"fixed_point_tol = {value}")
    with pytest.raises(ValueError, match=f"fixed_point_tol = '{value}' cannot be rerun"):
        config_from_manifest(edited)


def _fmt_float(v):
    return f"{float(v):.17g}"
