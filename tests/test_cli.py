import argparse
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bsplace.cli import _build_parser, main
from bsplace.scene import load_scene


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared CLI workspace: synthetic grids, a built scene, config files."""
    root = tmp_path_factory.mktemp("cli")
    grids = root / "grids"
    assert main(["synth", "--width", "40", "--height", "40",
                 "--cell-size", "25", "--seed", "0", "--out", str(grids)]) == 0

    scene_cfg = root / "scene_config.json"
    scene_cfg.write_text(json.dumps({
        "user_spacing_m": 200.0, "candidate_pitch_m": 350.0, "near_dist_m": 50.0,
    }))
    scene_dir = root / "scene"
    assert main(["build-scene", str(grids / "raster.asc"), str(grids / "dsm.asc"),
                 "--config", str(scene_cfg), "--out", str(scene_dir)]) == 0

    ga_cfg = root / "ga_config.json"
    ga_cfg.write_text(json.dumps({
        "pop_size": 16, "generations": 10, "m_max": 2, "seed": 0,
    }))
    radio_cfg = root / "radio_config.json"
    radio_cfg.write_text(json.dumps({"tx_power_dbm": 33.0}))
    # the same scene with a prior BS given twice, and with one on candidate 0
    doc = json.loads((scene_dir / "scene.json").read_text())
    site = doc["candidates"][0]["position"]
    for name, fixed in (("fixed_twice", [[10.0, 20.0, 30.0]] * 2),
                        ("fixed_on_candidate", [site])):
        (root / f"{name}.json").write_text(json.dumps({**doc, "fixed_bs": fixed}))
    # and with one bad scalar field (json.dumps writes inf as Infinity)
    for name, (group, key, value) in zip(_BAD_SCENE_FILES, _BAD_SCENE_FIELDS):
        bad = json.loads(json.dumps(doc))
        bad[group][0][key] = value
        (root / name).write_text(json.dumps(bad))
    for group in _COORD_GROUPS:
        for tag, value in _BAD_COORDS.items():
            bad = json.loads(json.dumps(doc))
            if group == "fixed_bs":
                bad["fixed_bs"] = [[value, 20.0, 30.0]]
            elif group == "buildings":
                bad["buildings"][0]["footprint"][0][0] = value
            else:
                bad[group][0]["position"][0] = value
            (root / f"bad_coord_{group}_{tag}.json").write_text(json.dumps(bad))
    for name, edit in zip(_BAD_SHAPE_FILES, _BAD_SCENE_SHAPES.values()):
        bad = json.loads(json.dumps(doc))
        edit(bad)
        (root / name).write_text(json.dumps(bad))
    # input files that are not UTF-8: a JSON file in UTF-16 with its byte
    # order mark (FF FE), and a grid with a 0xFF byte among its values
    (root / "utf16.json").write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    (root / "latin1.asc").write_bytes(
        b"ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n\xff\n")
    # input files cut short: JSON that ends mid-document, a grid one value short
    (root / "truncated.json").write_text('{"buildings": [')
    (root / "short.asc").write_text(
        "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n0 0 0\n")
    return {
        "root": root,
        "grids": grids,
        "scene": scene_dir / "scene.json",
        "candidate0": load_scene(scene_dir / "scene.json").candidates[0].position.tolist(),
        "ga": ga_cfg,
        "radio": radio_cfg,
    }


# ---------------------------------------------------------------------------
# synth

def test_synth_outputs_and_manifest(ws):
    grids = ws["grids"]
    assert (grids / "raster.asc").exists()
    assert (grids / "dsm.asc").exists()
    manifest = json.loads((grids / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 0
    assert manifest["threads"] == 1
    assert set(manifest) >= {"command", "inputs", "seed", "threads",
                             "out_dir", "tool_version", "duration_s"}


def test_synth_deterministic(ws, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--width", "20", "--height", "20",
                     "--seed", "7", "--out", str(out)]) == 0
    assert (a / "raster.asc").read_bytes() == (b / "raster.asc").read_bytes()
    assert (a / "dsm.asc").read_bytes() == (b / "dsm.asc").read_bytes()
    c = tmp_path / "c"
    assert main(["synth", "--width", "20", "--height", "20",
                 "--seed", "8", "--out", str(c)]) == 0
    assert (a / "raster.asc").read_bytes() != (c / "raster.asc").read_bytes()


def test_synth_names_the_bad_size(tmp_path, capsys):
    assert main(["synth", "--width", "5", "--height", "20", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: width must be >= 10 cells, got 5\n"


# ---------------------------------------------------------------------------
# build-scene

def test_build_scene_output(ws, capsys):
    scene = load_scene(ws["scene"])
    assert scene.users and scene.candidates
    # spacing from the config file was applied (200 m lattice on a 1 km tile)
    assert len(scene.users) < 40


@pytest.mark.parametrize("doc, named", [
    ({"near_dist_m": -5.0}, "near_dist_m must be >= 0"),
    ({"fixed_bs": [[10.0, 10.0, 30.0], [10.0, 10.0, 30.0]]}, "fixed_bs[0] and fixed_bs[1]"),
])
def test_build_scene_rejects_bad_config(ws, tmp_path, capsys, doc, named):
    cfg = tmp_path / "scene_config.json"
    cfg.write_text(json.dumps({"user_spacing_m": 200.0, "candidate_pitch_m": 350.0, **doc}))
    rc = main(["build-scene", str(ws["grids"] / "raster.asc"), str(ws["grids"] / "dsm.asc"),
               "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out" / "scene.json").exists()


def test_build_scene_missing_input(tmp_path):
    rc = main(["build-scene", str(tmp_path / "nope.asc"), str(tmp_path / "nope2.asc"),
               "--out", str(tmp_path)])
    assert rc == 1


# ---------------------------------------------------------------------------
# optimize

def run_optimize(ws, out, extra=()):
    return main(["optimize", str(ws["scene"]), "--ga-config", str(ws["ga"]),
                 "--radio-config", str(ws["radio"]), "--out", str(out), *extra])


def test_optimize_nsga2_outputs(ws, tmp_path, capsys):
    out = tmp_path / "run"
    assert run_optimize(ws, out) == 0
    stdout = capsys.readouterr().out
    assert "archived solution" in stdout
    archive = json.loads((out / "archive.json").read_text())
    assert archive
    for ind in archive:
        assert set(ind) == {"sites", "fixed_bs_count", "objectives", "rank", "crowding"}
        assert ind["rank"] == 0
        assert set(ind["objectives"]) == {"f1", "f2", "f3"}
        assert ind["fixed_bs_count"] == 0
        assert len(ind["sites"]) == int(ind["objectives"]["f2"])
    history = json.loads((out / "history.json").read_text())
    assert len(history) == 11
    for entry in history:
        assert set(entry["per_budget"]) == {"1", "2"}  # JSON object keys, 1..m_max
        assert all(set(stats) == {"f1", "f3"} for stats in entry["per_budget"].values())
    for m in ("1", "2"):
        f3 = [entry["per_budget"][m]["f3"] for entry in history]
        assert all(b <= a for a, b in zip(f3, f3[1:]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "optimize"
    assert manifest["inputs"]["method"] == "nsga2"


def test_optimize_repeat_is_byte_identical(ws, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_optimize(ws, a) == 0
    assert run_optimize(ws, b) == 0
    assert (a / "archive.json").read_bytes() == (b / "archive.json").read_bytes()
    assert (a / "history.json").read_bytes() == (b / "history.json").read_bytes()


def test_optimize_threads_match(ws, tmp_path):
    a = tmp_path / "seq"
    b = tmp_path / "par"
    assert run_optimize(ws, a, ("--threads", "1")) == 0
    assert run_optimize(ws, b, ("--threads", "8")) == 0
    assert (a / "archive.json").read_bytes() == (b / "archive.json").read_bytes()
    assert (a / "history.json").read_bytes() == (b / "history.json").read_bytes()


def test_optimize_seed_flag_overrides(ws, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_optimize(ws, a, ("--seed", "123")) == 0
    assert run_optimize(ws, b, ("--seed", "123")) == 0
    assert (a / "archive.json").read_bytes() == (b / "archive.json").read_bytes()
    # the flag wins over the seed stored in the config file
    assert json.loads((a / "manifest.json").read_text())["seed"] == 123
    assert json.loads((b / "manifest.json").read_text())["seed"] == 123


def test_optimize_ga_method(ws, tmp_path):
    out = tmp_path / "ga"
    assert run_optimize(ws, out, ("--method", "ga", "--m", "2")) == 0
    archive = json.loads((out / "archive.json").read_text())
    assert len(archive) == 1
    assert archive[0]["objectives"]["f2"] == 2.0
    assert len(archive[0]["sites"]) == 2
    history = json.loads((out / "history.json").read_text())
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_optimize_kmeans_method(ws, tmp_path):
    out = tmp_path / "km"
    assert run_optimize(ws, out, ("--method", "kmeans", "--m", "2")) == 0
    archive = json.loads((out / "archive.json").read_text())
    assert len(archive) == 1
    assert len(archive[0]["sites"]) == 2
    assert archive[0]["crowding"] == "inf"
    assert json.loads((out / "history.json").read_text()) == []


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_optimize_history_is_strict_json(ws, tmp_path):
    # at this size and seed some budget has no archived solution, so its
    # f1 and f3 are infinite; the file holds them as "inf", not as Infinity
    ga = tmp_path / "ga.json"
    ga.write_text(json.dumps({"pop_size": 4, "generations": 1}))
    out = tmp_path / "run"
    assert main(["optimize", str(ws["scene"]), "--ga-config", str(ga), "--seed", "2",
                 "--out", str(out)]) == 0
    history = json.loads((out / "history.json").read_text(), parse_constant=_strict_constant)
    assert any(stats == {"f1": "inf", "f3": "inf"}
               for entry in history for stats in entry["per_budget"].values())


def test_optimize_kmeans_requires_m(ws, tmp_path):
    assert run_optimize(ws, tmp_path / "x", ("--method", "kmeans")) == 2


def test_optimize_unknown_method_is_usage_error(ws, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_optimize(ws, tmp_path / "x", ("--method", "random-search"))
    assert exc.value.code == 2


def test_optimize_missing_scene(ws, tmp_path):
    rc = main(["optimize", str(tmp_path / "ghost.json"), "--out", str(tmp_path)])
    assert rc == 1


def test_optimize_misspelled_config_key_is_data_error(ws, tmp_path, capsys):
    bad = tmp_path / "ga.json"
    bad.write_text(json.dumps({"pop_size": 16, "generation": 5}))
    rc = main(["optimize", str(ws["scene"]), "--ga-config", str(bad),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "'generation'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, field", [
    (["optimize", "--ga-config"], {"pop_size": "16"}, "'pop_size'"),
    (["evaluate", "--sites", "0", "--radio-config"], {"tx_power_dbm": "33"}, "'tx_power_dbm'"),
])
def test_mistyped_config_value_is_data_error(ws, tmp_path, capsys, argv, doc, field):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(doc))
    rc = main([argv[0], str(ws["scene"]), *argv[1:], str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("argv, flag, doc, field", [
    (["evaluate", "--sites", "0"], "--radio-config", {"antenna_gain_dbi": float("nan")},
     "antenna_gain_dbi"),
    (["evaluate", "--sites", "0"], "--radio-config", {"carrier_ghz": float("inf")},
     "carrier_ghz"),
    (["evaluate", "--sites", "0"], "--ga-config", {"sinr_threshold_db": float("nan")},
     "sinr_threshold_db"),
])
def test_non_finite_config_value_is_data_error(ws, tmp_path, capsys, argv, flag, doc, field):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps(doc))
    rc = main([argv[0], str(ws["scene"]), *argv[1:], flag, str(bad),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}' must be a finite number" in err


@pytest.mark.parametrize("command", ["optimize", "evaluate", "compare"])
@pytest.mark.parametrize("key", ["shadowing_sigma_db", "shadowing_seed"])
def test_removed_shadowing_keys_are_unknown(ws, tmp_path, capsys, command, key):
    # even the old no-op value 0 is refused, so an old config cannot pass unread
    radio = tmp_path / "radio.json"
    radio.write_text(json.dumps({key: 0}))
    argv = [a.replace("{scene}", str(ws["scene"])) for a in _BASE_ARGV[command]]
    assert main(argv + ["--radio-config", str(radio), "--out", str(tmp_path / "out")]) == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err


# text None: the workspace scene with its top-level "fixed_bs" key given twice
@pytest.mark.parametrize("argv, text, key", [
    (["optimize", "{scene}", "--ga-config", "{bad}"], '{"seed": 1, "seed": 2}', "seed"),
    (["evaluate", "{scene}", "--sites", "0", "--radio-config", "{bad}"],
     '{"tx_power_dbm": 33.0, "tx_power_dbm": 40.0}', "tx_power_dbm"),
    (["build-scene", "{raster}", "{dsm}", "--config", "{bad}"],
     '{"user_spacing_m": 200.0, "candidate_pitch_m": 350.0, "user_spacing_m": 100.0}',
     "user_spacing_m"),
    (["evaluate", "{scene}", "--placement", "{bad}"], '{"sites": [0], "sites": [1]}', "sites"),
    (["evaluate", "{scene}", "--sites", "0", "--placement", "{bad}"],
     '{"positions": [], "sites": [], "positions": []}', "positions"),
    (["optimize", "{bad}"], None, "fixed_bs"),
    (["evaluate", "{bad}", "--sites", "0"], None, "fixed_bs"),
], ids=["ga-config", "radio-config", "scene-config", "placement-sites", "placement-positions",
        "optimize-scene", "evaluate-scene"])
def test_repeated_json_key_is_data_error(ws, tmp_path, capsys, argv, text, key):
    bad = tmp_path / "repeated.json"
    bad.write_text(text or '{"fixed_bs": [],' + ws["scene"].read_text()[1:])
    paths = {"{scene}": ws["scene"], "{raster}": ws["grids"] / "raster.asc",
             "{dsm}": ws["grids"] / "dsm.asc", "{bad}": bad}
    rc = main([str(paths.get(a, a)) for a in argv] + ["--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"repeated JSON key {key!r}" in err


# Exit codes over many invocations: every malformed command line is a usage
# error (2), every bad input file or value a data error (1).

_GA_FLOATS = ("crossover_prob", "mutation_prob_per_bit", "sinr_threshold_db")
_RADIO_FLOATS = ("carrier_ghz", "hpbw_deg", "front_back_db", "nlos_penalty_db",
                 "noise_figure_db", "bandwidth_mhz", "tx_power_dbm",
                 "min_coupling_loss_db", "antenna_gain_dbi")
_BASE_ARGV = {
    "optimize": ["optimize", "{scene}"],
    "evaluate": ["evaluate", "{scene}", "--sites", "0"],
    "compare": ["compare", "{scene}", "--methods", "kmeans", "--m", "1"],
    "build-scene": ["build-scene", "{raster}", "{dsm}"],
    "synth": ["synth", "--width", "10", "--height", "10"],
}
_BAD_SCENE_FIELDS = [("buildings", "base_elev", "x"), ("buildings", "top_elev", float("inf")),
                     ("buildings", "top_elev", True), ("candidates", "id", "a"),
                     ("candidates", "id", 1.7), ("users", "priority", "no")]
_BAD_SCENE_FILES = [f"bad_{group}_{key}_{value}.json" for group, key, value in _BAD_SCENE_FIELDS]
# coordinates that are not finite numbers: an integer too large for a float,
# a JSON bool and a numeric string, as the first value of a user, candidate,
# prior BS or vertex
_BAD_COORDS = {"huge": 10 ** 400, "bool": True, "string": "400"}
_COORD_GROUPS = ("users", "candidates", "fixed_bs", "buildings")
_BAD_COORD_FILES = [f"bad_coord_{group}_{tag}.json" for group in _COORD_GROUPS
                    for tag in _BAD_COORDS]
# scene files with an unknown key at the top or in an entry, a missing key,
# or an entry that is not an object
_BAD_SCENE_SHAPES = {
    "unknown_top": lambda doc: doc.update(fixed_BS=[]),
    "unknown_building": lambda doc: doc["buildings"][0].update(height=9.0),
    "unknown_user": lambda doc: doc["users"][0].update(priorty=True),
    "unknown_candidate": lambda doc: doc["candidates"][0].update(name="a"),
    "missing_priority": lambda doc: doc["users"][0].pop("priority"),
    "list_entry": lambda doc: doc["users"].__setitem__(0, [1.0, 2.0, 3.0]),
}
_BAD_SHAPE_FILES = [f"bad_shape_{name}.json" for name in _BAD_SCENE_SHAPES]
# an integer too large for a float in a float field of each kind of config
_HUGE = "1" + "0" * 400
_HUGE_CONFIG_CASES = [
    (_BASE_ARGV["optimize"] + ["--ga-config", "{config}"], f'{{"sinr_threshold_db": {_HUGE}}}'),
    (_BASE_ARGV["evaluate"] + ["--radio-config", "{config}"], f'{{"tx_power_dbm": {_HUGE}}}'),
    (_BASE_ARGV["build-scene"] + ["--config", "{config}"], f'{{"user_spacing_m": {_HUGE}}}'),
]
_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
# every kind of input file, each given as one that is not UTF-8
_NOT_UTF8_ARGV = [
    *([a.replace("{scene}", "{root}/utf16.json") for a in _BASE_ARGV[c]]
      for c in ("optimize", "evaluate", "compare")),
    _BASE_ARGV["optimize"] + ["--ga-config", "{root}/utf16.json"],
    _BASE_ARGV["evaluate"] + ["--radio-config", "{root}/utf16.json"],
    _BASE_ARGV["build-scene"] + ["--config", "{root}/utf16.json"],
    ["evaluate", "{scene}", "--placement", "{root}/utf16.json"],
    ["build-scene", "{root}/latin1.asc", "{dsm}"],
    ["build-scene", "{raster}", "{root}/latin1.asc"],
]
# every kind of input file, each given cut short
_TRUNCATED_ARGV = [
    *([a.replace("{scene}", "{root}/truncated.json") for a in _BASE_ARGV[c]]
      for c in ("optimize", "evaluate", "compare")),
    _BASE_ARGV["optimize"] + ["--ga-config", "{root}/truncated.json"],
    _BASE_ARGV["evaluate"] + ["--radio-config", "{root}/truncated.json"],
    _BASE_ARGV["build-scene"] + ["--config", "{root}/truncated.json"],
    ["evaluate", "{scene}", "--placement", "{root}/truncated.json"],
    ["build-scene", "{root}/short.asc", "{dsm}"],
    ["build-scene", "{raster}", "{root}/short.asc"],
]


def _usage_errors():
    command = st.sampled_from(sorted(_BASE_ARGV))
    return st.one_of(
        st.builds(lambda c, w: _BASE_ARGV[c] + [f"--zz{w}"], command, _words),
        st.builds(lambda c, w: _BASE_ARGV[c] + ["--seed", w], command, _words),
        st.builds(lambda w: [w + "x", "{scene}"], _words),  # no subcommand ends in x
        st.builds(lambda w: _BASE_ARGV["optimize"] + ["--method", w + "x"], _words),
        st.just(_BASE_ARGV["optimize"] + ["--method", "kmeans"]),
        st.builds(lambda w: ["evaluate", "{scene}", "--sites", f"0,{w}"], _words),
        st.builds(lambda w: ["compare", "{scene}", "--methods", f"kmeans,{w}x"], _words),
        st.builds(lambda w: ["compare", "{scene}", "--methods", "kmeans", "--m", w], _words),
        st.builds(lambda c, n: _BASE_ARGV[c] + ["--threads", str(n)], command,
                  st.integers(-10 ** 6, 0)),
        st.builds(lambda c, n: _BASE_ARGV[c] + ["--seed", str(n)], command,
                  st.integers(-10 ** 6, -1)),
        st.builds(lambda method, n: _BASE_ARGV["optimize"] + [*method, "--m", str(n)],
                  st.sampled_from([(), ("--method", "nsga2")]), st.integers(1, 6)),
    ).map(lambda argv: (argv, None, 2))


def _data_errors():
    command = st.sampled_from(["optimize", "evaluate", "compare"])
    configs = st.one_of(
        st.tuples(st.just("--ga-config"), st.sampled_from(_GA_FLOATS)),
        st.tuples(st.just("--radio-config"), st.sampled_from(_RADIO_FLOATS)),
    )
    non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])
    bad_config = st.one_of(
        st.builds(lambda fv, w: (fv[0], json.dumps({f"zz{w}": 1})), configs, _words),
        st.builds(lambda fv, v: (fv[0], json.dumps({fv[1]: v})), configs, non_finite),
        st.builds(lambda fv, w: (fv[0], json.dumps({fv[1]: w})), configs, _words),
        st.builds(lambda fv, w: (fv[0], w), configs, _words),  # not a JSON object
        st.builds(lambda n: ("--ga-config", json.dumps({"seed": n})),
                  st.integers(-10 ** 6, -1)),
    )
    return st.one_of(
        st.builds(lambda c, cfg: (_BASE_ARGV[c] + [cfg[0], "{config}"], cfg[1], 1),
                  command, bad_config),
        st.builds(lambda c, w: ([a.replace("{scene}", "{root}/" + w + ".json")
                                 for a in _BASE_ARGV[c]], None, 1), command, _words),
        st.builds(lambda i: (["evaluate", "{scene}", "--sites", str(i)], None, 1),
                  st.integers(50, 10 ** 6)),
        # the same mast twice: a repeated site id, a repeated position, or a
        # position on top of a chosen candidate
        st.builds(lambda i: (["evaluate", "{scene}", "--sites", f"{i},1,{i}"], None, 1),
                  st.integers(0, 2)),
        st.builds(lambda p: (["evaluate", "{scene}", "--placement", "{config}"],
                             json.dumps({"positions": [p, p]}), 1),
                  st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)),
        st.just((_BASE_ARGV["evaluate"] + ["--placement", "{config}"],
                 '{"positions": [{candidate0}]}', 1)),
        st.builds(lambda v: (["evaluate", "{scene}", "--placement", "{config}"],
                             json.dumps({"positions": [[100.0, v, 30.0]]}), 1),
                  st.sampled_from(list(_BAD_COORDS.values()))),
        st.builds(lambda v: (_BASE_ARGV["build-scene"] + ["--config", "{config}"],
                             json.dumps({"user_spacing_m": 200.0, "candidate_pitch_m": 350.0,
                                         "fixed_bs": [[v, 20.0, 30.0]]}), 1),
                  st.sampled_from(list(_BAD_COORDS.values()))),
        st.builds(lambda v: (_BASE_ARGV["synth"] + ["--cell-size", v], None, 1),
                  st.sampled_from(["nan", "inf"])),
        # a scene whose masts coincide, built or loaded
        st.builds(lambda fixed: (_BASE_ARGV["build-scene"] + ["--config", "{config}"],
                                 '{"user_spacing_m": 200.0, "candidate_pitch_m": 350.0, '
                                 f'"fixed_bs": {fixed}}}', 1),
                  st.one_of(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).map(
                      lambda p: json.dumps([p, p])), st.just("[{candidate0}]"))),
        st.builds(lambda c, name: ([a.replace("{scene}", "{root}/" + name)
                                    for a in _BASE_ARGV[c]], None, 1),
                  command, st.sampled_from(["fixed_twice.json", "fixed_on_candidate.json",
                                            *_BAD_SCENE_FILES, *_BAD_COORD_FILES,
                                            *_BAD_SHAPE_FILES])),
        st.sampled_from(_HUGE_CONFIG_CASES).map(lambda case: (*case, 1)),
        # a negative or non-finite near-building distance
        st.builds(lambda v: (_BASE_ARGV["build-scene"] + ["--config", "{config}"],
                             json.dumps({"user_spacing_m": 200.0, "near_dist_m": v}), 1),
                  st.one_of(st.floats(max_value=-1e-300), st.sampled_from(
                      [float("nan"), float("inf"), float("-inf")]))),
    )


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:  # argparse rejects the command line before main returns
        return e.code


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(_usage_errors(), _data_errors()))
def test_exit_code_property(ws, case):
    argv, config_text, expected = case
    config = ws["root"] / "property_config.json"
    if config_text is not None:
        config.write_text(config_text.replace("{candidate0}", json.dumps(ws["candidate0"])))
    paths = {"{scene}": ws["scene"], "{raster}": ws["grids"] / "raster.asc",
             "{dsm}": ws["grids"] / "dsm.asc", "{config}": config, "{root}": ws["root"]}
    for key, path in paths.items():
        argv = [a.replace(key, str(path)) for a in argv]
    assert _exit_code(argv + ["--out", str(ws["root"] / "property_out")]) == expected


# explicit examples: each one runs on every test run
for _argv in (_NOT_UTF8_ARGV + [["optimize", "{root}/" + name] for name in _BAD_SHAPE_FILES]
              + [["evaluate", "{root}/bad_coord_users_string.json", "--sites", "0"]]):
    test_exit_code_property = example(case=(_argv, None, 1))(test_exit_code_property)
for _argv, _text in _HUGE_CONFIG_CASES:
    test_exit_code_property = example(case=(_argv, _text, 1))(test_exit_code_property)


@pytest.mark.parametrize("text", ['{"seed": ' + "1" * 5000 + "}", "[" * 10 ** 5 + "]" * 10 ** 5],
                         ids=["integer-too-long", "nested-too-deep"])
def test_json_past_the_parser_limits_is_data_error(ws, tmp_path, capsys, text):
    bad = tmp_path / "limits.json"
    bad.write_text(text)
    rc = main(["optimize", str(ws["scene"]), "--ga-config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON: ")


@pytest.mark.parametrize("argv", _NOT_UTF8_ARGV + _TRUNCATED_ARGV)
def test_unreadable_input_is_named(ws, tmp_path, capsys, argv):
    bad = next(a for a in argv if "{root}" in a).replace("{root}", str(ws["root"]))
    paths = {"{scene}": ws["scene"], "{raster}": ws["grids"] / "raster.asc",
             "{dsm}": ws["grids"] / "dsm.asc", "{root}": ws["root"]}
    for key, path in paths.items():
        argv = [a.replace(key, str(path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_sites(ws, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["evaluate", str(ws["scene"]), "--sites", "0,1",
               "--radio-config", str(ws["radio"]), "--out", str(out)])
    assert rc == 0
    assert "users above 10 dB" in capsys.readouterr().out
    for name in ("coverage_eval.csv", "throughput_eval.csv", "placement_eval.csv"):
        assert (out / name).exists()
    cov = (out / "coverage_eval.csv").read_text().splitlines()
    assert cov[0] == "threshold_db,prob"
    assert len(cov) == 122


def test_evaluate_threshold_from_ga_config(ws, tmp_path, capsys):
    ga = tmp_path / "ga.json"
    ga.write_text(json.dumps({"sinr_threshold_db": -300.0}))
    rc = main(["evaluate", str(ws["scene"]), "--sites", "0,1", "--ga-config", str(ga),
               "--out", str(tmp_path / "eval")])
    assert rc == 0
    n_users = len(load_scene(ws["scene"]).users)
    assert f"{n_users}/{n_users} users above -300 dB" in capsys.readouterr().out


def test_evaluate_custom_tag_and_placement_file(ws, tmp_path):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({
        "sites": [0], "positions": [[500.0, 500.0, 40.0]],
    }))
    out = tmp_path / "eval2"
    rc = main(["evaluate", str(ws["scene"]), "--placement", str(placement),
               "--tag", "mix", "--out", str(out)])
    assert rc == 0
    assert (out / "coverage_mix.csv").exists()
    placed = (out / "placement_mix.csv").read_text().splitlines()
    assert sum(1 for ln in placed if ln.startswith("bs,")) == 2


def test_evaluate_rejects_bad_site_id(ws, tmp_path):
    rc = main(["evaluate", str(ws["scene"]), "--sites", "99",
               "--out", str(tmp_path / "x")])
    assert rc == 1


@pytest.mark.parametrize("doc, named", [
    ({"positions": [[100.0, "x", 30.0]]}, "positions[0]"),
    ({"positions": [[100.0, 100.0, 30.0], [100.0, float("nan"), 30.0]]}, "positions[1]"),
    ({"positions": [[100.0, 30.0]]}, "positions[0]"),
    ({"sites": [0, "a"]}, "sites[1]"),
    ({"sites": [1.7]}, "sites[0]"),
    ({"sites": [True]}, "sites[0]"),
    ({"sites": 1}, "'sites'"),
    ({"site": [0]}, "unknown key 'site'"),
    ({"sites": [0], "postions": [[5.0, 5.0, 20.0]]}, "unknown key 'postions'"),
    ({}, "placement.json: names no site and no position"),
    ({"sites": [], "positions": []}, "placement.json: names no site and no position"),
    ({"positions": [["400", "300", "40"]]}, "positions[0]"),
])
def test_evaluate_rejects_bad_placement_entry(ws, tmp_path, capsys, doc, named):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps(doc))
    rc = main(["evaluate", str(ws["scene"]), "--placement", str(placement),
               "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def _one_building_scene():
    return {
        "buildings": [{"footprint": [[0.0, 0.0], [40.0, 0.0], [40.0, 40.0]],
                       "base_elev": 0.0, "top_elev": 20.0}],
        "users": [{"position": [100.0, 100.0, 1.5], "priority": True},
                  {"position": [200.0, 50.0, 1.5], "priority": False}],
        "candidates": [{"id": 0, "position": [300.0, 300.0, 25.0]},
                       {"id": 1, "position": [10.0, 300.0, 25.0]}],
    }


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["buildings"][0].update(top_elev=0.0),
     "buildings[0]: prism roof must be above its base"),
    (lambda doc: doc["buildings"][0]["footprint"].pop(),
     "buildings[0]: footprint needs at least 3 vertices"),
    (lambda doc: doc["candidates"][1].update(id=2), "candidates[1].id must be 1"),
    (lambda doc: doc.update(users=[]), "users is empty"),
    (lambda doc: doc.update(candidates=[]), "candidates is empty"),
    (lambda doc: doc.update(fixed_bs=[doc["candidates"][1]["position"]]),
     "candidates[1] and fixed_bs[0] are the same mast"),
], ids=["flat-roof", "two-vertices", "id-gap", "no-users", "no-candidates", "coincident"])
def test_evaluate_names_file_and_entry_of_bad_scene(tmp_path, capsys, edit, message):
    doc = _one_building_scene()
    edit(doc)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    rc = main(["evaluate", str(path), "--sites", "0", "--out", str(tmp_path / "x")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_evaluate_rejects_non_integer_sites_flag(ws, tmp_path, capsys):
    rc = main(["evaluate", str(ws["scene"]), "--sites", "0,x",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "--sites" in capsys.readouterr().err


def test_evaluate_requires_some_placement(ws, tmp_path):
    rc = main(["evaluate", str(ws["scene"]), "--out", str(tmp_path / "x")])
    assert rc == 2


# ---------------------------------------------------------------------------
# compare

def test_compare_writes_csv(ws, tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", str(ws["scene"]), "--methods", "nsga2,kmeans",
               "--m", "1,2", "--ga-config", str(ws["ga"]),
               "--radio-config", str(ws["radio"]), "--out", str(out)])
    assert rc == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,m,pct_users_above_threshold,mean_sinr_db"
    assert len(lines) == 5
    assert "method" in capsys.readouterr().out


def test_compare_and_evaluate_agree_under_a_non_default_radio_config(ws, tmp_path, capsys):
    radio = tmp_path / "radio.json"
    radio.write_text(json.dumps({
        "carrier_ghz": 3.5, "hpbw_deg": 70.0, "front_back_db": 25.0, "nlos_penalty_db": 28.0,
        "noise_figure_db": 7.0, "bandwidth_mhz": 20.0, "tx_power_dbm": 36.0,
        "min_coupling_loss_db": 65.0, "antenna_gain_dbi": 17.0}))
    argv = ["--radio-config", str(radio), "--out"]
    assert main(["compare", str(ws["scene"]), "--methods", "kmeans", "--m", "3",
                 *argv, str(tmp_path / "cmp")]) == 0
    printed = capsys.readouterr().out.splitlines()[-1].split()
    # compare writes no sites; k-means run alone with the same seed places the same
    assert main(["optimize", str(ws["scene"]), "--method", "kmeans", "--m", "3",
                 *argv, str(tmp_path / "km")]) == 0
    sites = json.loads((tmp_path / "km" / "archive.json").read_text())[0]["sites"]
    capsys.readouterr()
    assert main(["evaluate", str(ws["scene"]), "--sites", ",".join(map(str, sites)),
                 *argv, str(tmp_path / "eval")]) == 0
    found = re.search(r"(\d+)/(\d+) users above 10 dB, mean SINR (\S+) dB",
                      capsys.readouterr().out)
    above, n_users = int(found[1]), int(found[2])
    assert 0 < above < n_users
    pct = 100.0 * (above / n_users)
    assert printed == ["kmeans", "3", f"{pct:.2f}", found[3]]
    row = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()[1].split(",")
    assert float(row[2]) == pct and f"{float(row[3]):.2f}" == found[3]


def test_compare_rejects_unknown_method(ws, tmp_path):
    rc = main(["compare", str(ws["scene"]), "--methods", "nsga2,tabu",
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_compare_rejects_bad_counts(ws, tmp_path):
    rc = main(["compare", str(ws["scene"]), "--methods", "nsga2",
               "--m", "three", "--out", str(tmp_path / "x")])
    assert rc == 2


# ---------------------------------------------------------------------------
# manifest replay

def _replay_argv(manifest, out):
    """The command line that `manifest` records: its inputs, seed and threads."""
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    inputs = dict(manifest["inputs"])
    argv = [manifest["command"]]
    for action in subs.choices[manifest["command"]]._actions:
        if action.dest in ("help", "seed", "threads", "out"):
            continue
        value = inputs.pop(action.dest)  # every argument is recorded
        if not action.option_strings:
            argv.append(value)
        elif action.nargs == 0:
            argv += action.option_strings[:1] if value else []
        elif value is not None:
            argv += [action.option_strings[0], str(value)]
    assert not inputs, f"recorded inputs no flag reads: {inputs}"
    return argv + ["--seed", str(manifest["seed"]), "--threads", str(manifest["threads"]),
                   "--out", str(out)]


def _replay_cases(ws, tmp_path):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({"sites": [1], "positions": [[500.0, 500.0, 40.0]]}))
    ga = tmp_path / "ga.json"
    ga.write_text(json.dumps({"pop_size": 8, "generations": 3, "m_max": 3}))
    scene = str(ws["scene"])
    return {
        "synth": ["synth", "--width", "30", "--height", "20", "--cell-size", "5",
                  "--density", "0.4"],
        "build-scene": ["build-scene", str(ws["grids"] / "raster.asc"),
                        str(ws["grids"] / "dsm.asc"),
                        "--config", str(ws["root"] / "scene_config.json")],
        "optimize": ["optimize", scene, "--method", "ga", "--m", "2", "--ga-config", str(ga),
                     "--no-blockages"],
        "evaluate": ["evaluate", scene, "--sites", "0", "--placement", str(placement),
                     "--radio-config", str(ws["radio"]), "--tag", "mix"],
        "compare": ["compare", scene, "--methods", "ga,kmeans", "--m", "2,1",
                    "--radio-config", str(ws["radio"]), "--ga-config", str(ga),
                    "--no-blockages"],
    }


@pytest.mark.parametrize("command", ["synth", "build-scene", "optimize", "evaluate", "compare"])
def test_manifest_inputs_replay_byte_identical(ws, tmp_path, command):
    # flags that change the outputs, among them ones a hand-kept list could miss
    first = tmp_path / "first"
    assert main([*_replay_cases(ws, tmp_path)[command], "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    again = tmp_path / "again"
    assert main(_replay_argv(manifest, again)) == 0
    outputs = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert outputs and outputs == sorted(p.name for p in again.iterdir()
                                         if p.name != "manifest.json")
    for name in outputs:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
    replayed = json.loads((again / "manifest.json").read_text())
    assert replayed["inputs"] == manifest["inputs"]
    assert replayed["seed"] == manifest["seed"]


def test_back_to_back_runs_record_their_own_flags(ws, tmp_path):
    # the parser is built once per process: a flag of one run must not
    # leak into the next run's parsed arguments or manifest
    scene = str(ws["scene"])
    tagged, plain = tmp_path / "tagged", tmp_path / "plain"
    assert main(["evaluate", scene, "--sites", "0", "--tag", "a", "--no-blockages",
                 "--seed", "4", "--out", str(tagged)]) == 0
    assert main(["evaluate", scene, "--sites", "1", "--out", str(plain)]) == 0
    first = json.loads((tagged / "manifest.json").read_text())
    second = json.loads((plain / "manifest.json").read_text())
    assert first["inputs"]["tag"] == "a" and first["inputs"]["no_blockages"] is True
    assert first["inputs"]["sites"] == "0" and first["seed"] == 4
    assert second["inputs"]["tag"] == "eval" and second["inputs"]["no_blockages"] is False
    assert second["inputs"]["sites"] == "1" and second["seed"] == 0
    assert (plain / "coverage_eval.csv").exists() and not (plain / "coverage_a.csv").exists()


# ---------------------------------------------------------------------------
# entry point

def test_module_entry_point_version():
    proc = subprocess.run([sys.executable, "-m", "bsplace.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("bsplace ")


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
