"""The CLI contract under malformed input: every command, whatever its scene and
arguments, exits 0, 2, 3 or 4 and prints no traceback.

A valid 64-voxel scene is mutated (wrong types, signs, NaN and infinities,
missing keys, dangling region ids, booleans in integer fields, run fields no
command reads, a voxel edge too fine to voxelize) and so is
each command's argv (bad numbers, vectors and ranges, dropped flags).  The
same scene with its body read from a 4 x 4 x 4 mask file gets a mutated mask
file (a truncated header, tokens that are not numbers or not integers, huge
or non-finite edges and origins, ids of the wrong count, sign or size).  The
scene file, its mask file and the output directory are also named by paths
to nothing, to a directory, to bytes that are not text, or too long.  No
mutation can enlarge the body past 64 voxels or ask for a large quadrature,
so every example stays small.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import yaml
from hypothesis import example, given, settings, strategies as st

from greenvox.cli import main as cli_main

SCENE = {
    "schema_version": 1,
    "units": {"system": "natural", "reference_length": 1.0},
    "materials": [{"region_id": 1, "poles": [{"omega0": 1.5, "omegap": 1.0, "gamma": 0.4}]}],
    "geometry": {"voxel_edge": 0.2, "shapes": [
        {"kind": "box", "min_corner": [-0.4, -0.4, -0.4], "max_corner": [0.4, 0.4, 0.4],
         "region_id": 1}]},
    "solver": {"tol": 1e-10, "dense_cap": 1000},
    "quadrature": {"n_theta": 4, "n_phi": 8},
    "runs": {"validate": {"omega": 1.0}},
}

#: where a scene mutation lands; a path missing from SCENE is created
SCENE_PATHS = [
    ("schema_version",), ("units",), ("units", "system"), ("units", "reference_length"),
    ("materials",), ("materials", 0), ("materials", 0, "region_id"),
    ("materials", 0, "poles"), ("materials", 0, "poles", 0),
    ("materials", 0, "poles", 0, "omega0"), ("materials", 0, "poles", 0, "omegap"),
    ("materials", 0, "poles", 0, "gamma"), ("geometry",), ("geometry", "voxel_edge"),
    ("geometry", "shapes"), ("geometry", "shapes", 0), ("geometry", "shapes", 0, "kind"),
    ("geometry", "shapes", 0, "min_corner"), ("geometry", "shapes", 0, "max_corner", 2),
    ("geometry", "shapes", 0, "region_id"), ("solver",), ("solver", "tol"),
    ("solver", "dense_cap"), ("quadrature", "n_theta"), ("runs",), ("runs", "validate"),
    ("runs", "validate", "omega"), ("runs", "validate", "x"), ("runs", "validate", "y"),
    ("runs", "validate", "emitter"), ("runs", "validate", "dipole"),
    ("runs", "validate", "tol"), ("runs", "purcell"), ("runs", "purcell", "omega_min"),
    ("runs", "greens", "source"), ("bogus",),
]

#: frequencies of the scene, which also take values far outside the float range
FREQUENCY_PATHS = [
    ("materials", 0, "poles", 0, "omega0"), ("materials", 0, "poles", 0, "omegap"),
    ("materials", 0, "poles", 0, "gamma"), ("runs", "validate", "omega"),
]
FREQUENCY_VALUES = [1e300, -1e300, 1e-300, 1e30, 1e-30]

#: the scene's integer fields: YAML true and false load as bools, which are ints, and a
#: scene holding one in any of these fields exits 4
INTEGER_PATHS = [
    ("schema_version",), ("materials", 0, "region_id"), ("geometry", "shapes", 0, "region_id"),
    ("solver", "dense_cap"), ("quadrature", "n_theta"), ("quadrature", "n_phi"),
]

#: a voxel edge whose lattice over any body the mutations reach (at least 0.4 x 0.4 x
#: 0.25) has more sites than build_grid scans, so the grid is refused before it is built
FINE_VOXEL_EDGE = 1e-3

#: values no mutation target can turn into a body above 64 voxels or a large quadrature
SCENE_VALUES = [None, "x", "", -1, 0, 2, 0.25, float("nan"), float("inf"),
                float("-inf"), True, [], {}, [1, 2], {"bogus": 1}, [0.0, 0.0, 0.0],
                [1.2, 0.0, 0.0], ["a", 0, 0], [float("nan"), 0.0, 0.0], [9, 9, 9],
                "sphere", "mask"]

ARGV = {
    "greens": ["--omega", "1.0", "--src", "1.2,0.1,-0.1", "--eval", "-0.3,1.1,0.2"],
    "modes": ["--omega", "1.0", "--kdir", "0,0.6,0.8", "--eval", "{points}"],
    "purcell": ["--emitter", "1.2,0.1,-0.1", "--dipole", "0,0,1", "--omega-range",
                "0.9:1.1:2"],
    "ldos-check": ["--omega", "1.0", "--point", "1.2,0.1,-0.1", "--point2", "-0.3,1.1,0.2"],
    "validate": [],
}
COMMON_FLAGS = ["--tol", "--quad", "--threads"]
ARG_VALUES = ["nan", "-1", "0", "1", "inf", "-inf", "1e300", "abc", "", "1,2", "0,0,0",
              "nan,0,0", "0.1,0.1,0.1", "1.2,0.1,-0.1", "0.9:0.8:2", "0:1:2", "1:1:1",
              "1:2:0", "nan:1:2", "1e300:1e300:1", "1e-300:1:2", "4x8", "0x8", "ax8", "1e-300",
              "1e200,0,0", "0,0,1e-300", "1025x8"]


#: (flag, value) pairs the number rule of command-line points and vectors rejects, and
#: a --quad order above MAX_QUADRATURE_ORDER
OUT_OF_RANGE = {("--src", "1e200,0,0"), ("--emitter", "1e200,0,0"), ("--point", "1e200,0,0"),
                ("--kdir", "0,0,1e-300"), ("--dipole", "0,0,1e-300"), ("--quad", "1025x8")}


def _set(tree, path, value):
    """Put value at path in tree, creating dicts on the way; skip a path through a
    short list or a scalar."""
    *head, last = path
    node = tree
    for key in head:
        if isinstance(node, dict):
            node = node.setdefault(key, {})
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return
    if isinstance(node, dict):
        node[last] = value
    elif isinstance(node, list) and isinstance(last, int) and last < len(node):
        node[last] = value


def _get(tree, path):
    """The value at path, or None when the path does not exist."""
    for key in path:
        try:
            tree = tree[key]
        except (KeyError, IndexError, TypeError):
            return None
    return tree


def _delete(tree, path):
    """Remove the key at path from its mapping, if the path exists."""
    node = tree
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(node, dict):
        node.pop(path[-1], None)


scene_mutations = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(SCENE_PATHS), st.sampled_from(SCENE_VALUES)),
    st.tuples(st.just("set"), st.sampled_from(FREQUENCY_PATHS),
              st.sampled_from(FREQUENCY_VALUES)),
    st.tuples(st.just("set"), st.just(("geometry", "voxel_edge")), st.just(FINE_VOXEL_EDGE)),
    st.tuples(st.just("set"), st.sampled_from(INTEGER_PATHS), st.booleans()),
    st.tuples(st.just("delete"), st.sampled_from(SCENE_PATHS), st.none())), max_size=3)

argv_mutations = st.lists(st.tuples(
    st.sampled_from(sorted({f for argv in ARGV.values() for f in argv if f.startswith("--")}
                           | set(COMMON_FLAGS))),
    st.one_of(st.none(), st.sampled_from(ARG_VALUES))), max_size=3)


def _mutated_argv(command, mutations, points):
    argv = [a.format(points=points) for a in ARGV[command]]
    for flag, value in mutations:
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
        if value is not None:  # None drops the flag
            argv += [flag, value]
    return argv


@settings(max_examples=60)
@given(command=st.sampled_from(sorted(ARGV)), scene_ops=scene_mutations,
       argv_ops=argv_mutations)
# a boolean in one integer field and no other mutation: true in each of INTEGER_PATHS and
# false in one; in schema_version, both region_ids and dense_cap true would read as a
# valid 1, so the boolean alone decides the exit code
@example(command="greens", scene_ops=[("set", ("schema_version",), True)], argv_ops=[])
@example(command="greens", scene_ops=[("set", ("materials", 0, "region_id"), True)],
         argv_ops=[])
@example(command="greens", scene_ops=[("set", ("geometry", "shapes", 0, "region_id"), True)],
         argv_ops=[])
@example(command="greens", scene_ops=[("set", ("solver", "dense_cap"), True)], argv_ops=[])
@example(command="greens", scene_ops=[("set", ("quadrature", "n_theta"), True)], argv_ops=[])
@example(command="greens", scene_ops=[("set", ("quadrature", "n_phi"), True)], argv_ops=[])
@example(command="greens", scene_ops=[("set", ("solver", "dense_cap"), False)], argv_ops=[])
# every point past the number range, every vector whose norm underflows and a quadrature
# order above the cap, which 60 random examples seldom reach (OUT_OF_RANGE)
@example(command="greens", scene_ops=[], argv_ops=[("--src", "1e200,0,0")])
@example(command="purcell", scene_ops=[], argv_ops=[("--emitter", "1e200,0,0")])
@example(command="ldos-check", scene_ops=[], argv_ops=[("--point", "1e200,0,0")])
@example(command="modes", scene_ops=[], argv_ops=[("--kdir", "0,0,1e-300")])
@example(command="purcell", scene_ops=[], argv_ops=[("--dipole", "0,0,1e-300")])
@example(command="validate", scene_ops=[], argv_ops=[("--quad", "1025x8")])
def test_cli_exit_codes_hold_under_malformed_input(command, scene_ops, argv_ops):
    scene = copy.deepcopy(SCENE)
    for op, path, value in scene_ops:
        if op == "set":
            _set(scene, path, copy.deepcopy(value))
        else:
            _delete(scene, path)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scene.yaml").write_text(yaml.safe_dump(scene))
        points = tmp / "points.csv"
        points.write_text("x,y,z\n1.2,0.1,-0.1\n")
        argv = [command, "--scene", str(tmp / "scene.yaml"), "--out-dir", str(tmp / "out"),
                *_mutated_argv(command, argv_ops, points)]
        err = io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 2, 3, 4), (argv, scene, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, scene, err.getvalue())
    if any(isinstance(_get(scene, path), bool) for path in INTEGER_PATHS):
        assert code == 4, (argv, scene, err.getvalue())
    if argv_ops and set(argv_ops) <= OUT_OF_RANGE:
        assert code == 4, (argv, scene, err.getvalue())


#: the 4 x 4 x 4 mask of the scene's cube, as tokens: nx ny nz edge origin, then 64 ids
MASK = ["4", "4", "4", "0.2", "-0.4", "-0.4", "-0.4"] + ["1"] * 64

#: tokens a mask mutation writes: non-numbers, non-integers, non-finite, huge, tiny,
#: zero, negative and out-of-int64 values
MASK_VALUES = ["abc", "", "1.5", "2.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e30",
               "1e-30", "1e-300", "0", "-1", "2", "4", "99999999999999999999999",
               "-99999999999999999999999", "9223372036854775807"]

mask_mutations = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 6), st.none()),
    st.tuples(st.just("set"), st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 40, 70]),
              st.sampled_from(MASK_VALUES)),
    st.tuples(st.just("drop"), st.sampled_from([1, 63, 64]), st.none()),
    st.tuples(st.just("append"), st.sampled_from(MASK_VALUES), st.none())), min_size=1,
    max_size=3)


def _mutated_mask(mutations):
    """The mask's tokens after the mutations; no id is added unless the count is wrong."""
    tokens = list(MASK)
    for op, where, value in mutations:
        if op == "truncate":
            tokens = tokens[:where]
        elif op == "set" and where < len(tokens):
            tokens[where] = value
        elif op == "drop":
            tokens = tokens[:max(7, len(tokens) - where)]
        elif op == "append":
            tokens.append(where)
    return " ".join(tokens) + "\n"


@settings(max_examples=40)
@given(command=st.sampled_from(sorted(ARGV)), mask_ops=mask_mutations)
def test_cli_exit_codes_hold_under_malformed_mask_files(command, mask_ops):
    scene = copy.deepcopy(SCENE)
    scene["geometry"] = {"shapes": [{"kind": "mask", "path": "body.msk"}]}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scene.yaml").write_text(yaml.safe_dump(scene))
        (tmp / "body.msk").write_text(_mutated_mask(mask_ops))
        points = tmp / "points.csv"
        points.write_text("x,y,z\n1.2,0.1,-0.1\n")
        argv = [command, "--scene", str(tmp / "scene.yaml"), "--out-dir", str(tmp / "out"),
                *_mutated_argv(command, [], points)]
        err = io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 2, 3, 4), (argv, _mutated_mask(mask_ops), err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, _mutated_mask(mask_ops), err.getvalue())


#: what a path names: the file or directory meant, nothing, a directory, a file of
#: bytes that are not UTF-8 text, or a name longer than a file system takes
PATH_KINDS = ["meant", "missing", "directory", "not UTF-8", "overlong"]


@settings(max_examples=30)
@given(scene=st.sampled_from(PATH_KINDS), mask=st.sampled_from(PATH_KINDS),
       out_dir=st.sampled_from(PATH_KINDS))
def test_cli_exit_codes_hold_for_whatever_a_path_names(scene, mask, out_dir):
    """Whatever --scene, the scene's mask path and --out-dir name, greens exits 0, 2,
    3 or 4 with no traceback, and 4 when one names what it cannot use: for the scene
    and the mask anything but the file meant, for --out-dir a file or an overlong
    name (a missing directory is made, an existing one written into)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "directory").mkdir()
        (tmp / "not UTF-8").write_bytes(b"\x81 4 4 4 \xff\n")
        where = {"missing": tmp / "missing", "directory": tmp / "directory",
                 "not UTF-8": tmp / "not UTF-8", "overlong": tmp / ("x" * 300)}
        meant = {"scene": tmp / "scene.yaml", "mask": tmp / "body.msk", "out": tmp / "out"}
        paths = {name: meant[name] if kind == "meant" else where[kind]
                 for name, kind in (("scene", scene), ("mask", mask), ("out", out_dir))}
        body = copy.deepcopy(SCENE)
        body["geometry"] = {"shapes": [{"kind": "mask", "path": str(paths["mask"])}]}
        meant["scene"].write_text(yaml.safe_dump(body))
        meant["mask"].write_text(" ".join(MASK) + "\n")
        argv = ["greens", "--scene", str(paths["scene"]), "--out-dir", str(paths["out"]),
                *ARGV["greens"]]
        err = io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if scene != "meant" or mask != "meant" or out_dir in ("not UTF-8", "overlong"):
        assert code == 4, (scene, mask, out_dir, err.getvalue())


#: purcell --out names: a stem, a suffix, and a directory part before them
OUT_STEMS = ["purcell", "p", "spectrum.v2", ".hidden", "...", "a b"]
OUT_SUFFIXES = [".csv", ".json", ".gp", ".JSON", ".Gp", ""]
OUT_DIRECTORIES = ["", "sub/", "out/", "./"]
CSV_HEADER = "omega,purcell,gamma_e,gamma_m,identity_residual,error"


@settings(max_examples=30)
@given(directory=st.sampled_from(OUT_DIRECTORIES), stem=st.sampled_from(OUT_STEMS),
       suffix=st.sampled_from(OUT_SUFFIXES), empty=st.booleans())
@example(directory="", stem="purcell", suffix=".json", empty=False)
@example(directory="sub/", stem="p", suffix=".csv", empty=False)
def test_purcell_out_names_exit_0_or_4(directory, stem, suffix, empty):
    """Whatever purcell --out names, the run exits 0 or 4 with no traceback; a name
    with a directory part or a .gp or .json suffix, or an empty one, exits 4, and on
    exit 0 the CSV the manifest names is the sweep's table."""
    name = "" if empty else directory + stem + suffix
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        (Path(tmp) / "scene.yaml").write_text(yaml.safe_dump(SCENE))
        argv = ["purcell", "--scene", str(Path(tmp) / "scene.yaml"), "--out-dir", str(out),
                *ARGV["purcell"], "--out", name]
        err = io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 4) and "Traceback" not in err.getvalue(), (name, err.getvalue())
        if empty or directory or suffix.lower() in (".gp", ".json"):
            assert code == 4, (name, err.getvalue())
        if code == 0:
            manifest = json.loads((out / Path(name).with_suffix(".json")).read_text())
            lines = (out / manifest["outputs"]["csv"]).read_text().splitlines()
            assert lines[0].startswith("# config_hash=") and lines[1] == CSV_HEADER, name
