import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from greenvox import SceneError, load_scene, purcell, scene_to_dict
from greenvox.cli import main as cli_main
from greenvox.constants import C_SI
from greenvox.ldos import EmitterSpec
from greenvox.scene import scene_from_dict

MINIMAL_VACUUM = """
schema_version: 1
materials:
  - region_id: 1
    poles: []
geometry:
  voxel_edge: 0.2
  shapes:
    - {kind: box, min_corner: [-0.4, -0.4, -0.4], max_corner: [0.4, 0.4, 0.4],
       region_id: 1}
"""

CUBE_SCENE = """
schema_version: 1
units: {system: natural, reference_length: 1.0}
materials:
  - region_id: 1
    poles: [{omega0: 1.5, omegap: 1.0, gamma: 0.4}]
geometry:
  voxel_edge: 0.2
  shapes:
    - {kind: box, min_corner: [-0.4, -0.4, -0.4], max_corner: [0.4, 0.4, 0.4],
       region_id: 1}
runs:
  validate: {omega: 1.0}
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_vacuum_scene_defaults(tmp_path):
    cfg = load_scene(write(tmp_path, "v.yaml", MINIMAL_VACUUM))
    assert cfg.solver_tol == 1e-10
    assert (cfg.n_theta, cfg.n_phi) == (8, 16)
    assert cfg.units.mode == "natural"
    grid = cfg.build_grid()
    assert grid.n == 64
    assert cfg.config_hash and len(cfg.config_hash) == 64


def test_unknown_material_id_named(tmp_path):
    bad = MINIMAL_VACUUM.replace("region_id: 1}", "region_id: 9}")
    with pytest.raises(SceneError) as err:
        load_scene(write(tmp_path, "bad.yaml", bad))
    assert "dangling region id 9" in str(err.value)


def test_all_errors_reported(tmp_path):
    text = """
schema_version: 1
bogus_field: 2
materials:
  - region_id: 1
    poles: [{omega0: -1.0, omegap: 1.0, gamma: 0.0, extra: 3}]
geometry:
  voxel_edge: -0.5
  shapes:
    - {kind: pyramid}
solver: {tol: 0}
"""
    with pytest.raises(SceneError) as err:
        load_scene(write(tmp_path, "multi.yaml", text))
    msg = str(err.value)
    for frag in ("bogus_field", "extra", "voxel_edge", "pyramid", "solver.tol"):
        assert frag in msg, f"missing {frag} in:\n{msg}"


def test_parse_error_reports_location(tmp_path):
    with pytest.raises(SceneError, match="line"):
        load_scene(write(tmp_path, "syntax.yaml", "a: [1, 2\nb: 3\n"))


def test_missing_file(tmp_path):
    with pytest.raises(SceneError, match="does not exist"):
        load_scene(tmp_path / "nope.yaml")


def test_round_trip_idempotent(tmp_path):
    cfg = load_scene(write(tmp_path, "cube.yaml", CUBE_SCENE))
    canon = scene_to_dict(cfg)
    cfg2 = scene_from_dict(json.loads(json.dumps(canon)))
    assert scene_to_dict(cfg2) == canon
    assert cfg2.config_hash == cfg.config_hash


C_LIGHT = 299792458.0
L0 = 1e-6
F0 = C_LIGHT / L0


@pytest.mark.parametrize("raw, expected", [
    ({"geometry": {"voxel_edge": 0.2, "shapes": [
        {"kind": "box", "min_corner": [-0.4] * 3, "max_corner": [0.4] * 3, "region_id": 1}]},
      "materials": [{"region_id": 1, "poles": [{"omega0": 1.5, "omegap": 1.0, "gamma": 0.4}]}]},
     "d2443515f689f6cbaba1ded0e4f308afd30331b3ea9fd5f1bfdf98eedf1b0bc4"),
    ({"geometry": {"voxel_edge": 0.25, "shapes": [
        {"kind": "sphere", "center": [0.1, 0, 0], "radius": 1.0, "region_id": 1}]},
      "materials": [{"region_id": 1, "poles": [{"omega0": 0.0, "omegap": 1.5, "gamma": 0.3}]}]},
     "0601cfe0cb160be7aaea71b1d95af866fc8e5da4c3c94a3526683a83d63a8542"),
    ({"units": {"system": "SI"},
      "materials": [
          {"region_id": 1, "poles": [{"omega0": 1.5 * F0, "omegap": F0, "gamma": 0.4 * F0}]},
          {"region_id": 2, "poles": []}],
      "geometry": {"voxel_edge": 0.2 * L0, "shapes": [
          {"kind": "sphere", "center": [0, 0, 0], "radius": L0, "region_id": 1},
          {"kind": "box", "min_corner": [0.5 * L0, -0.4 * L0, -0.4 * L0],
           "max_corner": [1.5 * L0, 0.4 * L0, 0.4 * L0], "region_id": 2}]},
      "runs": {"validate": {"omega": F0}}},
     "dc4d99c5594f3d125081a628aef4eee44e771a8870427a5b176662a95792cc7f"),
], ids=["natural box", "natural sphere", "SI union"])
def test_config_hash_pinned(raw, expected):
    """Parsing, unit conversion, the default reference length and the canonical
    form all feed the hash; these values were computed by an earlier release."""
    assert scene_from_dict(raw).config_hash == expected


def test_mask_scene(tmp_path):
    from greenvox.geometry import write_mask

    write_mask(tmp_path / "body.msk", (1, 1, 2), 0.25, (0.0, 0.0, 0.0),
               np.array([[[1, 1]]]))
    text = """
materials:
  - region_id: 1
    poles: []
geometry:
  shapes:
    - {kind: mask, path: body.msk}
"""
    cfg = load_scene(write(tmp_path, "mask.yaml", text))
    grid = cfg.build_grid()
    assert grid.n == 2
    assert grid.voxel_edge == 0.25


def test_si_and_natural_purcell_agree(tmp_path):
    """The dimensionless Purcell factor is unit-system independent."""
    natural = load_scene(write(tmp_path, "nat.yaml", CUBE_SCENE))
    c = C_SI
    L0 = 1e-6
    f = c / L0  # frequency scale
    si_text = f"""
schema_version: 1
units: {{system: SI, reference_length: {L0!r}}}
materials:
  - region_id: 1
    poles: [{{omega0: {1.5 * f!r}, omegap: {1.0 * f!r}, gamma: {0.4 * f!r}}}]
geometry:
  voxel_edge: {0.2 * L0!r}
  shapes:
    - {{kind: box, min_corner: [{-0.4 * L0!r}, {-0.4 * L0!r}, {-0.4 * L0!r}],
       max_corner: [{0.4 * L0!r}, {0.4 * L0!r}, {0.4 * L0!r}], region_id: 1}}
"""
    si = load_scene(write(tmp_path, "si.yaml", si_text))
    em_nat = EmitterSpec(position=(0.95, 0.15, 0.25), omega=1.0, dipole=(0, 0, 1))
    em_si = EmitterSpec(
        position=tuple(si.units.to_internal(v * L0, "length")
                       for v in (0.95, 0.15, 0.25)),
        omega=si.units.to_internal(1.0 * f, "frequency"),
        dipole=(0, 0, 1))
    p_nat = purcell(natural.build_grid(), natural.materials, em_nat, 1e-10)
    p_si = purcell(si.build_grid(), si.materials, em_si, 1e-10)
    assert abs(p_si - p_nat) <= 1e-12 * abs(p_nat)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_greens_json(tmp_path, capsys):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["greens", "--scene", str(scene), "--omega", "1.0",
                   "--src=-0.2,0.95,0.4", "--eval", "1.1,0.25,-0.15"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    G = np.array(payload["green"]["re"]) + 1j * np.array(payload["green"]["im"])
    from greenvox import MediumSolver
    cfg = load_scene(scene)
    expected = MediumSolver(cfg.build_grid(), cfg.materials, 1.0).green(
        np.array([1.1, 0.25, -0.15]), np.array([-0.2, 0.95, 0.4]))
    assert np.allclose(G, expected, rtol=1e-12)


def test_cli_modes_csv(tmp_path, capsys):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    pts = write(tmp_path, "pts.csv", "x,y,z\n1.2,0.3,-0.2\n0.1,-0.1,0.0\n")
    rc = cli_main(["modes", "--scene", str(scene), "--omega", "1.0",
                   "--kdir", "0,0,1", "--sigma", "+", "--zeta", "c",
                   "--eval", str(pts), "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "modes.csv").read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "x,y,z,re_ex,im_ex,re_ey,im_ey,re_ez,im_ez"
    assert len(lines) == 4


def test_cli_purcell_sweep(tmp_path):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["purcell", "--scene", str(scene), "--emitter", "0.95,0.15,0.25",
                   "--dipole", "0,0,1", "--omega-range", "0.8:1.0:3",
                   "--out-dir", str(tmp_path), "--quad", "4x8"])
    assert rc == 0
    rows = (tmp_path / "purcell.csv").read_text().strip().splitlines()
    assert rows[0].startswith("# config_hash=")
    assert len(rows) == 5  # hash comment + header + 3 frequencies
    assert (tmp_path / "purcell.gp").exists()


def test_cli_purcell_rerun_byte_identical(tmp_path):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        rc = cli_main(["purcell", "--scene", str(scene), "--emitter", "0.95,0.15,0.25",
                       "--dipole", "0,0,1", "--omega-range", "0.9:1.0:2",
                       "--out-dir", str(d), "--quad", "4x8"])
        assert rc == 0
        outs.append((d / "purcell.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", ["purcell.json", "purcell.gp", "P.JSON", "sub/p.csv",
                                  "sub/", "", "..", "."],
                         ids=["json", "gp", "upper-case json", "missing directory",
                              "trailing slash", "empty", "parent", "dot"])
def test_purcell_out_names_that_clobber_or_leave_the_directory_exit_4(name, tmp_path, capsys,
                                                                      monkeypatch):
    """The manifest and the plot script are written beside the CSV as <stem>.json and
    <stem>.gp, so a CSV named like either was overwritten by it, with exit 0; a name
    with a directory that does not exist ended in a FileNotFoundError traceback.  Any
    name but a plain file name not ending in .gp or .json now exits 4 with one stderr
    line before the scene is read, and nothing is solved or written."""
    import greenvox.vie as vie

    monkeypatch.setattr(vie, "solve_system", lambda *a, **k: pytest.fail("solved"))
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["purcell", "--scene", str(scene), "--emitter", "0.95,0.15,0.25",
                   "--dipole", "0,0,1", "--omega-range", "0.9:1.0:2",
                   "--out-dir", str(tmp_path / "out"), "--out", name])
    err = capsys.readouterr().err
    assert rc == 4
    assert len(err.strip().splitlines()) == 1 and "--out must be a file name" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube.yaml"]


def test_purcell_out_without_a_suffix_keeps_all_three_files(tmp_path, capsys):
    """A plain name without a suffix is the CSV itself, beside <name>.gp and <name>.json,
    and the manifest names all three."""
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["purcell", "--scene", str(scene), "--emitter", "0.95,0.15,0.25",
                   "--dipole", "0,0,1", "--omega-range", "0.9:1.0:2",
                   "--out-dir", str(tmp_path), "--out", "spectrum", "--quad", "4x8"])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "spectrum.json").read_text())
    assert (manifest["outputs"]["csv"], manifest["outputs"]["plot_script"]) == ("spectrum",
                                                                               "spectrum.gp")
    lines = (tmp_path / "spectrum").read_text().splitlines()
    assert lines[1] == "omega,purcell,gamma_e,gamma_m,identity_residual,error" and len(lines) == 4


@pytest.mark.parametrize("argv, taken", [
    (["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1", "--omega-range",
      "0.9:1.0:2", "--quad", "4x8"], "purcell.csv"),
    (["validate", "--quad", "4x8"], "validate_report.json"),
], ids=["purcell", "validate"])
def test_an_output_file_that_cannot_be_written_exits_4(argv, taken, tmp_path, capsys):
    """An output whose name is taken by a directory in --out-dir ended in an
    IsADirectoryError traceback with exit 1; it exits 4 with one stderr line."""
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    (tmp_path / "out" / taken).mkdir(parents=True)
    rc = cli_main([argv[0], "--scene", str(scene), "--out-dir", str(tmp_path / "out"),
                   *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in err, err
    assert err.strip().splitlines()[-1].startswith(f"cannot write {tmp_path / 'out' / taken}")


def test_cli_validate_vacuum_scene(tmp_path, capsys):
    scene = write(tmp_path, "vac.yaml", MINIMAL_VACUUM)
    rc = cli_main(["validate", "--scene", str(scene)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in out


def test_cli_ldos_check(tmp_path, capsys):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["ldos-check", "--scene", str(scene), "--omega", "1.0",
                   "--point", "0.95,0.15,0.25", "--quad", "4x8"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["relative_residual_absorption_form"] < 1e-2


def test_cli_validate_passes_and_is_deterministic(tmp_path, capsys):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli_main(["validate", "--scene", str(scene), "--out-dir", str(out1)])
    rc2 = cli_main(["validate", "--scene", str(scene), "--out-dir", str(out2)])
    capsys.readouterr()
    assert rc1 == 0 and rc2 == 0
    b1 = (out1 / "validate_report.json").read_bytes()
    b2 = (out2 / "validate_report.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    for expected in ("kramers_kronig[region 1]", "free_space_spectral",
                     "dyson_identity", "reciprocity", "route_equivalence_e",
                     "route_equivalence_m", "ldos_identity_absorption",
                     "ldos_identity_m_form", "ldos_forms_agreement", "ldos_identity_discrete",
                     "compensation_exact", "compensation_mu_route",
                     "vacuum_purcell", "vacuum_gamma_e"):
        assert expected in names


def test_cli_validate_fails_with_coarse_quadrature(tmp_path, capsys):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["validate", "--scene", str(scene), "--quad", "2x4"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("scene_text, extra, field", [
    (CUBE_SCENE + "quadrature: {n_theta: 1025, n_phi: 16}\n", [], "n_theta"),
    (CUBE_SCENE, ["--quad", "8x1025"], "n_phi"),
], ids=["scene n_theta", "--quad n_phi"])
def test_a_quadrature_order_above_the_cap_exits_4_before_any_solve(scene_text, extra, field,
                                                                   tmp_path, capsys, monkeypatch):
    """An order above MAX_QUADRATURE_ORDER, from the scene or from --quad, is a scene error:
    exit 4 with one error line under the scene header, before the rule is built or
    anything is solved."""
    import greenvox.report as report
    import greenvox.vie as vie

    monkeypatch.setattr(vie, "solve_system", lambda *a, **k: pytest.fail("solved"))
    monkeypatch.setattr(report, "make_shell_quadrature", lambda *a: pytest.fail("built"))
    scene = write(tmp_path, "cube.yaml", scene_text)
    rc = cli_main(["validate", "--scene", str(scene), *extra])
    err = capsys.readouterr().err
    expected = f"  - quadrature.{field}: expected at most 1024, got 1025"
    assert rc == 4 and err.splitlines() == ["invalid scene:", expected], err


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.yaml", "materials: 7\n")
    rc = cli_main(["validate", "--scene", str(bad)])
    capsys.readouterr()
    assert rc == 4


def test_cli_overrides_are_validated_and_hashed(tmp_path, capsys):
    """--tol/--quad go through the scene's validation and into config_hash."""
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    quad48 = write(tmp_path, "quad48.yaml", CUBE_SCENE + "quadrature: {n_theta: 4, n_phi: 8}\n")

    def ldos_check(path, *extra):
        rc = cli_main(["ldos-check", "--scene", str(path), "--omega", "1.0",
                       "--point", "1.2,0.1,0.0", *extra])
        out, err = capsys.readouterr()
        return rc, (json.loads(out) if rc == 0 else err)

    _, plain = ldos_check(scene)
    _, q816 = ldos_check(scene, "--quad", "8x16")
    _, q48 = ldos_check(scene, "--quad", "4x8")
    _, from_file = ldos_check(quad48)
    assert plain["config_hash"] == load_scene(scene).config_hash
    assert q816 == plain  # the override restates the scene's default
    assert q48["config_hash"] != plain["config_hash"]
    # the LDOS shell integral is exact, so the quadrature order moves only the hash
    assert dict(q48, config_hash=None) == dict(plain, config_hash=None)
    assert q48 == from_file
    _, tol8 = ldos_check(scene, "--tol", "1e-8")
    assert tol8["config_hash"] not in (plain["config_hash"], q48["config_hash"])

    rc, err = ldos_check(scene, "--tol", "0")
    assert rc == 4 and "solver.tol: must be strictly positive" in err
    rc, err = ldos_check(scene, "--quad", "1x1")
    assert rc == 4 and "quadrature.n_theta: expected an integer >= 2" in err


@pytest.mark.parametrize("argv, message", [
    (["greens", "--omega=-1", "--src", "0,0,0.9", "--eval", "1.2,0,0"], "--omega"),
    (["modes", "--omega=-1", "--kdir", "0,0,1", "--eval", "points.csv"], "--omega"),
    (["ldos-check", "--omega=-1", "--point", "1.2,0,0"], "--omega"),
    (["modes", "--omega", "1", "--kdir", "0,0,0", "--eval", "points.csv"], "--kdir"),
    (["modes", "--omega", "1", "--kdir", "0,0,1", "--eval", "missing.csv"], "missing.csv"),
    (["modes", "--omega", "1", "--kdir", "0,0,1", "--eval", "words.csv"], "words.csv"),
    (["modes", "--omega", "1", "--kdir", "0,0,1", "--eval", "pairs.csv"], "pairs.csv"),
    (["modes", "--omega", "1", "--kdir", "0,0,1", "--eval", "header.csv"], "header.csv"),
    (["greens", "--omega", "1", "--src", "2,0,0", "--eval", "2,0,0"], "ldos-check"),
    (["modes", "--omega", "1", "--kdir", "0,0,1", "--eval", "huge.csv"], "huge.csv"),
], ids=["greens omega", "modes omega", "ldos-check omega", "zero kdir", "missing csv",
        "non-numeric csv", "two-column csv", "no points", "coincident greens", "huge csv"])
def test_cli_bad_input_is_a_config_error(argv, message, tmp_path, capsys, monkeypatch):
    """Bad command-line input exits 4 with one stderr line, not a traceback."""
    monkeypatch.chdir(tmp_path)
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    write(tmp_path, "points.csv", "x,y,z\n1.2,0.3,-0.2\n")
    write(tmp_path, "words.csv", "x,y,z\n1.2,zero,-0.2\n")
    write(tmp_path, "pairs.csv", "1.2,0.3\n")
    write(tmp_path, "header.csv", "x,y,z\n")
    write(tmp_path, "huge.csv", "x,y,z\n1e300,0,0\n")
    rc = cli_main([argv[0], "--scene", str(scene), *argv[1:]])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 4
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("argv", [
    ["greens", "--omega", "1", "--src", "nan,0,3", "--eval", "1.2,0,0"],
    ["greens", "--omega", "1", "--src", "0,0,3", "--eval", "1.2,inf,0"],
    ["ldos-check", "--omega", "1", "--point", "inf,0,0"],
    ["ldos-check", "--omega", "1", "--point", "1.2,0,0", "--point2", "0,nan,1.3"],
    ["purcell", "--emitter", "0.95,nan,0.25", "--dipole", "0,0,1", "--omega-range", "0.9:1.1:3"],
    ["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,0", "--omega-range", "0.9:1.1:3"],
    ["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1", "--omega-range", "1.1:0.9:3"],
    ["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1", "--omega-range", "nan:1.1:3"],
    ["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1", "--omega-range", "0.9:inf:3"],
    ["validate", "--threads", "0"],
    ["validate", "--threads", "-2"],
    ["validate", "--out-dir", "taken.txt"],
    ["validate", "--out-dir", "taken.txt/sub"],
    ["modes", "--omega", "1", "--kdir", "0,0.6,-0.8", "--eval", "points.csv"],
    ["greens", "--omega", "1e300", "--src", "0,0,3", "--eval", "1.2,0,0"],
    ["ldos-check", "--omega", "1e-300", "--point", "1.2,0,0"],
    ["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1",
     "--omega-range", "1e300:1e300:1"],
    ["validate", "--out-dir", "d" * 300],
    ["validate", "--threads", "2147483648"],
    ["validate", "--threads", "4294967297"],
    ["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1", "--omega-range", "0.9:1.1:3",
     "--out", "p" * 300],
    ["purcell", "--emitter", "0.95,0.15,0.25", "--dipole", "0,0,1", "--omega-range", "0.9:1.1:3",
     "--out", "p" * 251 + ".csv"],
    ["greens", "--omega", "1", "--src", "1e200,0,0", "--eval", "2,0,0"],
    ["ldos-check", "--omega", "1", "--point", "1e160,0,0"],
    ["ldos-check", "--omega", "1", "--point", "2,0,0", "--point2", "2,0,1e-300"],
    ["greens", "--omega", "1", "--src", "2,0,0", "--eval", "2,0,1e-110"],
    ["modes", "--omega", "1", "--kdir", "1e300,0,1e300", "--eval", "points.csv"],
    ["modes", "--omega", "1", "--kdir", "1e-300,0,0", "--eval", "points.csv"],
    ["purcell", "--emitter", "2,0,0", "--dipole", "1e300,0,1", "--omega-range", "0.9:1.1:3"],
    ["purcell", "--emitter", "2,0,0", "--dipole", "1e-300,0,0", "--omega-range", "0.9:1.1:3"],
    ["purcell", "--emitter", "1e300,0,0", "--dipole", "0,0,1", "--omega-range", "0.9:1.1:3"],
], ids=["nan src", "inf eval", "inf point", "nan point2", "nan emitter", "zero dipole",
        "unsorted range", "nan range start", "inf range stop", "zero threads",
        "negative threads", "out-dir is a file", "out-dir below a file", "downward kdir",
        "huge omega", "tiny omega", "huge range", "overlong out-dir",
        "threads past a C int", "threads that wrap to one", "overlong out",
        "out whose manifest name is overlong", "huge src", "huge point",
        "point pair closer than 1e-30", "greens pair closer than 1e-30", "overflowing kdir",
        "underflowing kdir", "huge dipole", "tiny dipole", "huge emitter"])
def test_cli_bad_arguments_exit_4_before_any_solve(argv, tmp_path, capsys, monkeypatch):
    """Arguments no scene can make valid exit 4 with one stderr line, no traceback,
    and nothing is solved or written; the thread variables stay unset."""
    import greenvox.vie as vie

    monkeypatch.chdir(tmp_path)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(vie, "solve_system", lambda *a, **k: pytest.fail("solved"))
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    write(tmp_path, "taken.txt", "")
    rc = cli_main([argv[0], "--scene", str(scene), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 4
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1, err
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cube.yaml", "taken.txt"]


@pytest.mark.parametrize("path, value, field", [
    (("units",), "x", "units: expected a mapping"),
    (("geometry",), float("nan"), "geometry: expected a mapping"),
    (("solver",), True, "solver: expected a mapping"),
    (("quadrature",), [1, 2], "quadrature: expected a mapping"),
    (("materials", 0, "poles"), 0.25, "materials[0].poles: expected a list"),
    (("geometry", "shapes", 0, "kind"), [], "geometry.shapes[0].kind"),
    (("materials", 0, "poles", 0, "omegap"), 1e300, "materials[0].poles[0].omegap"),
    (("runs", "validate", "omega"), 1e-300, "runs.validate.omega"),
    (("runs", "validate"), {"omega": 1.0, "x": [2, 0, 0], "y": [2, 0, 1e-300]},
     "runs.validate.y"),
], ids=["units", "geometry", "solver", "quadrature", "poles", "shape kind",
        "huge omegap", "tiny validate omega", "validate points closer than 1e-30"])
def test_malformed_scene_values_are_scene_errors(path, value, field, tmp_path, capsys):
    """Each of these escaped the schema as a traceback (a block that is not a
    mapping, poles that are not a list, an unhashable shape kind, a frequency whose
    square leaves the float range): now exit 4, naming the field."""
    scene = yaml.safe_load(CUBE_SCENE)
    node = scene
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    rc = cli_main(["validate", "--scene", str(write(tmp_path, "bad.yaml",
                                                     yaml.safe_dump(scene)))])
    captured = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in captured and field in captured, captured


@pytest.mark.parametrize("path, field", [
    (("schema_version",), "schema_version"),
    (("materials", 0, "region_id"), "materials[0].region_id"),
    (("geometry", "shapes", 0, "region_id"), "geometry.shapes[0].region_id"),
    (("solver", "dense_cap"), "solver.dense_cap"),
    (("quadrature", "n_theta"), "quadrature.n_theta"),
    (("quadrature", "n_phi"), "quadrature.n_phi"),
], ids=["schema_version", "material region_id", "shape region_id", "dense_cap", "n_theta",
        "n_phi"])
def test_yaml_booleans_are_not_scene_integers(path, field, tmp_path, capsys):
    """YAML reads true as a bool, which Python counts as the int 1: schema_version,
    either region_id, dense_cap (which sent every body to GMRES) and the quadrature
    sizes all reject it, exit 4, naming the field."""
    scene = yaml.safe_load(CUBE_SCENE)
    node = scene
    for key in path[:-1]:
        node = node[key] if isinstance(node, list) else node.setdefault(key, {})
    node[path[-1]] = True
    text = yaml.safe_dump(scene)
    assert f"{path[-1]}: true" in text
    rc = cli_main(["validate", "--scene", str(write(tmp_path, "bad.yaml", text))])
    captured = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in captured and field in captured, captured


@pytest.mark.parametrize("pole, field", [
    ("{omega0: 0.0, omegap: 1.5, gamma: 0}", "gamma"),
    ("{omega0: 0.0, omegap: 1.5, gamma: -0.3}", "gamma"),
    ("{omega0: -1.0, omegap: 1.5, gamma: 0.3}", "omega0"),
])
def test_pole_signs_are_scene_errors(pole, field, tmp_path, capsys):
    """A pole without strict absorption is a schema error, listed with the others,
    and the CLI exits 4 instead of raising ValueError from the permittivity model."""
    text = CUBE_SCENE.replace("{omega0: 1.5, omegap: 1.0, gamma: 0.4}", pole)
    text = text.replace("voxel_edge: 0.2", "voxel_edge: -0.2")
    with pytest.raises(SceneError) as err:
        load_scene(write(tmp_path, "pole.yaml", text))
    assert any(e.startswith("materials[0].poles[0]:") and field in e for e in err.value.errors)
    assert any("geometry.voxel_edge" in e for e in err.value.errors)
    scene = write(tmp_path, "pole_only.yaml", CUBE_SCENE.replace(
        "{omega0: 1.5, omegap: 1.0, gamma: 0.4}", pole))
    rc = cli_main(["validate", "--scene", str(scene)])
    captured = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in captured and field in captured


@pytest.mark.parametrize("field, text", [
    ("runs.purcell.omega_min", CUBE_SCENE + "  purcell: {omega_min: 0.9}\n"),
    ("runs.validate.tol", CUBE_SCENE.replace("{omega: 1.0}", "{omega: 1.0, tol: 1.0e-6}")),
], ids=["purcell", "validate"])
def test_a_run_field_no_command_reads_is_a_scene_error(field, text, tmp_path, capsys):
    """Only runs.validate takes fields, and only the five it reads: any other run
    field exits 4 with one stderr line naming it, where it was silently ignored."""
    scene = write(tmp_path, "dead.yaml", text)
    with pytest.raises(SceneError) as err:
        load_scene(scene)
    assert len(err.value.errors) == 1 and err.value.errors[0].startswith(field)
    rc = cli_main(["validate", "--scene", str(scene)])
    captured = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in captured
    assert len([line for line in captured.splitlines() if field in line]) == 1
    # an empty block of another command stays valid
    assert load_scene(write(tmp_path, "empty.yaml", CUBE_SCENE + "  purcell: {}\n")).runs


@pytest.mark.parametrize("field, probes", [
    ("runs.validate.y", "x: [1.2, 0.1, 0.0], y: [1.2, 0.1, 0.0]"),
    ("runs.validate.dipole", "dipole: [0, 0, 0]"),
], ids=["x equals y", "zero dipole"])
def test_validate_probes_the_run_cannot_use_are_scene_errors(field, probes, tmp_path, capsys):
    """x equal to y and a zero dipole raised ValueError inside the run, exit 1 with
    a traceback: now each exits 4 with one stderr line naming the field."""
    text = CUBE_SCENE.replace("{omega: 1.0}", f"{{omega: 1.0, {probes}}}")
    scene = write(tmp_path, "probes.yaml", text)
    with pytest.raises(SceneError) as err:
        load_scene(scene)
    assert len(err.value.errors) == 1 and err.value.errors[0].startswith(field)
    rc = cli_main(["validate", "--scene", str(scene)])
    captured = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in captured
    assert len([line for line in captured.splitlines() if field in line]) == 1


@pytest.mark.parametrize("y", ["[0.13, 0.05, 0.12]", "[0.1, 0.1, 0.1]"],
                         ids=["off-center", "voxel center"])
def test_validate_passes_with_y_inside_the_body(y, tmp_path, capsys):
    """A y probe inside the body closes the Dyson identity like one outside."""
    text = CUBE_SCENE.replace("{omega: 1.0}", f"{{omega: 1.0, y: {y}}}")
    rc = cli_main(["validate", "--scene", str(write(tmp_path, "inside.yaml", text)),
                   "--out-dir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().out


@pytest.mark.parametrize("omega", ["0", "-1.0", "0.0"])
def test_nonpositive_validate_omega_is_a_scene_error(omega, tmp_path, capsys):
    """runs.validate.omega <= 0 is collected as a schema error; the CLI exits 4
    instead of a ZeroDivisionError in the probe defaults."""
    text = CUBE_SCENE.replace("validate: {omega: 1.0}", f"validate: {{omega: {omega}}}")
    with pytest.raises(SceneError) as err:
        load_scene(write(tmp_path, "w.yaml", text.replace("gamma: 0.4", "gamma: 0")))
    assert any(e.startswith("runs.validate.omega: must be strictly positive")
               for e in err.value.errors)
    assert any(e.startswith("materials[0].poles[0]:") for e in err.value.errors)
    rc = cli_main(["validate", "--scene", str(write(tmp_path, "v.yaml", text))])
    captured = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in captured and "runs.validate.omega" in captured


def test_cli_usage_errors_are_config_errors(tmp_path, capsys):
    """argparse would exit 2, the validation-failure code: usage errors exit 4, --help 0."""
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    greens = ["greens", "--scene", str(scene), "--omega", "1"]
    assert cli_main([*greens, "--src", "2,0", "--eval", "1.2,0,0"]) == 4
    assert "--src expects three comma-separated numbers" in capsys.readouterr().err
    assert cli_main([*greens, "--src", "2,0,0"]) == 4
    assert "the following arguments are required: --eval" in capsys.readouterr().err
    assert cli_main(["greens", "--help"]) == 0
    assert "--src SRC" in capsys.readouterr().out


def test_cli_triplets_take_negative_values(tmp_path, capsys):
    """A triplet whose first number is negative is a separate argument's value, not an
    option; a negative --omega still reaches its own check."""
    scene = str(write(tmp_path, "cube.yaml", CUBE_SCENE))
    write(tmp_path, "points.csv", "x,y,z\n1.2,0.3,-0.2\n")
    assert cli_main(["ldos-check", "--scene", scene, "--omega", "1", "--quad", "2x4",
                     "--point", "0.95,0.15,0.25", "--point2", "-0.3,1.4,0.2"]) == 0
    assert json.loads(capsys.readouterr().out)["y"] == [-0.3, 1.4, 0.2]
    assert cli_main(["greens", "--scene", scene, "--omega", "1",
                     "--src", "-0.2,0.95,0.4", "--eval", "-1.1,0.25,-0.15"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source"] == [-0.2, 0.95, 0.4] and payload["eval"] == [-1.1, 0.25, -0.15]
    assert cli_main(["modes", "--scene", scene, "--omega", "1", "--kdir", "-0.48,0.36,0.8",
                     "--eval", str(tmp_path / "points.csv")]) == 0
    assert cli_main(["purcell", "--scene", scene, "--quad", "2x4", "--out-dir", str(tmp_path),
                     "--emitter", "-0.95,0.15,0.25", "--dipole", "-1,0,0",
                     "--omega-range", "1.0:1.0:1"]) == 0
    manifest = json.loads((tmp_path / "purcell.json").read_text())
    assert manifest["inputs"]["emitter"] == [-0.95, 0.15, 0.25]
    assert manifest["inputs"]["dipole"] == [-1.0, 0.0, 0.0]
    capsys.readouterr()
    assert cli_main(["greens", "--scene", scene, "--omega", "-1",
                     "--src", "0,0,0.9", "--eval", "1.2,0,0"]) == 4
    assert capsys.readouterr().err.strip().splitlines() == [
        "--omega must be a positive finite frequency in [1e-30, 1e+30], got -1.0"]


def test_cli_grid_error_exit_code(tmp_path, capsys):
    """A body the grid cannot voxelize is a configuration error: exit 4, one line."""
    scene = write(tmp_path, "coarse.yaml", CUBE_SCENE.replace("voxel_edge: 0.2",
                                                               "voxel_edge: 0.9"))
    rc = cli_main(["greens", "--scene", str(scene), "--omega", "1.0",
                   "--src", "0,0,0.9", "--eval", "1.2,0,0"])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.strip().splitlines() == ["grid error: voxel edge exceeds the shape diameter"]


def test_cli_lattice_too_fine_exit_code(tmp_path, capsys, monkeypatch):
    """A voxel edge of 0.001 on the 0.8 cube asks for 800^3 lattice sites: exit 4 with
    the site count on one line, before the lattice is allocated."""
    import greenvox.geometry as geometry

    monkeypatch.setattr(geometry, "_lattice_centers",
                        lambda *a: pytest.fail("lattice allocated"))
    scene = write(tmp_path, "fine.yaml", CUBE_SCENE.replace("voxel_edge: 0.2",
                                                             "voxel_edge: 0.001"))
    rc = cli_main(["validate", "--scene", str(scene)])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.strip().splitlines() == [
        "grid error: the lattice spanning the shapes has 512000000 sites, more than the "
        "16777216 a grid may have: raise the voxel edge"]


@pytest.mark.parametrize("argv", [
    ["greens", "--omega", "1.0", "--src", "0,0,0.9", "--eval", "1.2,0,0"],
    ["validate"],
])
def test_cli_mask_region_without_material_exit_code(argv, tmp_path, capsys, monkeypatch):
    """A mask voxel whose region id no material declares exits 4 with one line naming
    the id, before anything is assembled."""
    import greenvox.vie as vie
    from greenvox.geometry import write_mask

    monkeypatch.setattr(vie, "assemble", lambda *a, **k: pytest.fail("assembled"))
    ids = np.ones((2, 2, 2), dtype=int)
    ids[1, 0, 1] = 2
    write_mask(tmp_path / "body.msk", ids.shape, 0.25, (0.0, 0.0, 0.0), ids)
    scene = write(tmp_path, "mask.yaml", """
materials:
  - region_id: 1
    poles: [{omega0: 1.5, omegap: 1.0, gamma: 0.4}]
geometry:
  shapes:
    - {kind: mask, path: body.msk}
""")
    rc = cli_main([argv[0], "--scene", str(scene), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.strip().splitlines() == ["grid error: mask region id 2 has no material definition"]


@pytest.mark.parametrize("mask, message", [
    ("2 2 1 0.25 0 0 0\n1 1 1 1.5\n", "invalid literal for int() with base 10: '1.5'"),
    ("2.5 2 1 0.25 0 0 0\n1 1 1 1\n", "invalid literal for int() with base 10: '2.5'"),
    ("2 2 1 0.25 0 0 0\n1 1 1 99999999999999999999999\n", "too large"),
    ("2 2 1 0.25 1e300 0 0\n1 1 1 1\n", "origin within 1e+30"),
], ids=["non-integer id", "non-integer dimension", "id past int64", "origin past 1e30"])
def test_cli_malformed_mask_numbers_exit_code(mask, message, tmp_path, capsys):
    """A mask file whose numbers cannot make a grid is a grid error, exit 4, with one
    line naming the file: not a ValueError or OverflowError traceback, exit 1."""
    (tmp_path / "body.msk").write_text(mask)
    scene = write(tmp_path, "mask.yaml", """
materials:
  - region_id: 1
    poles: [{omega0: 1.5, omegap: 1.0, gamma: 0.4}]
geometry:
  shapes:
    - {kind: mask, path: body.msk}
""")
    rc = cli_main(["greens", "--scene", str(scene), "--omega", "1", "--src", "0,0,2",
                   "--eval", "0,0,3", "--out-dir", str(tmp_path / "out")])
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert rc == 4
    assert line.startswith("grid error: mask file") and message in line


@pytest.mark.parametrize("scene, mask", [
    ("a directory", None), ("s" * 300 + ".yaml", None), ("latin.yaml", None),
    ("mask.yaml", "missing.msk"), ("mask.yaml", "a directory"), ("mask.yaml", "latin.msk"),
], ids=["scene is a directory", "overlong scene name", "scene not UTF-8", "missing mask",
        "mask is a directory", "mask not UTF-8"])
def test_an_unreadable_scene_or_mask_file_exits_4(scene, mask, tmp_path, capsys):
    """A scene or mask file that cannot be read, or is not UTF-8 text, exits 4 with a
    message naming it: not an IsADirectoryError, OSError, UnicodeDecodeError or
    FileNotFoundError traceback, exit 1."""
    (tmp_path / "a directory").mkdir()
    (tmp_path / "latin.yaml").write_bytes(CUBE_SCENE.encode() + b"# caf\xe9\n")
    (tmp_path / "latin.msk").write_bytes(b"1 1 1 0.25 0 0 0\n1 # caf\xe9\n")
    write(tmp_path, "mask.yaml", f"""
materials:
  - region_id: 1
    poles: [{{omega0: 1.5, omegap: 1.0, gamma: 0.4}}]
geometry:
  shapes:
    - {{kind: mask, path: {mask}}}
""")
    rc = cli_main(["greens", "--scene", str(tmp_path / scene), "--omega", "1", "--src",
                   "0,0,2", "--eval", "0,0,3"])
    err = capsys.readouterr().err
    assert rc == 4 and "Traceback" not in err and str(tmp_path / (mask or scene)) in err, err


def test_cli_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    """A sweep row whose solver raises SolverError is itemized and the run exits 3;
    a nonpositive sweep frequency is a configuration error, exit 4 before any solve."""
    import greenvox.vie as vie
    from greenvox.scene import SceneConfig

    solver = SceneConfig.solver

    def failing_at_0_9(cfg, omega):
        if omega == 0.9:
            raise vie.SolverError("GMRES failed to converge on column 0")
        return solver(cfg, omega)

    monkeypatch.setattr(SceneConfig, "solver", failing_at_0_9)
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    argv = ["purcell", "--scene", str(scene), "--emitter", "0.95,0.15,0.25",
            "--dipole", "0,0,1", "--out-dir", str(tmp_path)]
    rc = cli_main([*argv, "--omega-range", "0.8:1.0:3"])
    assert "1 of 3 sweep rows failed" in capsys.readouterr().err
    assert rc == 3
    rows = (tmp_path / "purcell.csv").read_text().strip().splitlines()[2:]
    assert ["converge" in r for r in rows] == [False, True, False]

    monkeypatch.setattr(vie, "solve_system", lambda *a, **k: pytest.fail("solved"))
    for start in ("-0.5", "0"):
        rc = cli_main([*argv, f"--omega-range={start}:1.0:2", "--out-dir", str(tmp_path / start)])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 4 and len(err) == 1 and "positive" in err[0]
        assert not (tmp_path / start).exists()


BIG_CUBE_SCENE = CUBE_SCENE.replace(
    "min_corner: [-0.4, -0.4, -0.4], max_corner: [0.4, 0.4, 0.4]",
    "min_corner: [-0.8, -0.8, -0.8], max_corner: [0.8, 0.8, 0.8]") + "solver: {dense_cap: 100}\n"


def test_validate_discrete_ldos_identity_on_both_paths(tmp_path):
    """The kernel's own kappa closes the LDOS identity to 1e-12 on dense LU and to
    10x the solver tolerance under FFT-GMRES (512 voxels against dense_cap 100)."""
    from greenvox.report import run_validation

    for text, threshold in ((CUBE_SCENE, 1e-12), (BIG_CUBE_SCENE, 1e-9)):
        report = run_validation(load_scene(write(tmp_path, "scene.yaml", text)))
        check, = [c for c in report.checks if c.name == "ldos_identity_discrete"]
        assert report.passed and check.passed
        assert check.threshold == threshold and check.value <= threshold


def test_cli_greens_above_dense_cap_solves_matrix_free(tmp_path, capsys):
    """512 voxels against dense_cap 100: FFT-GMRES, not a DenseCapError traceback."""
    from greenvox import MediumSolver

    scene = write(tmp_path, "big.yaml", BIG_CUBE_SCENE)
    src, ev = (0.1, -0.2, 1.3), (1.25, 0.3, -0.1)
    rc = cli_main(["greens", "--scene", str(scene), "--omega", "1.0",
                   "--src", ",".join(map(str, src)), "--eval", ",".join(map(str, ev))])
    out = capsys.readouterr().out
    assert rc == 0
    green = json.loads(out)["green"]
    G = np.asarray(green["re"]) + 1j * np.asarray(green["im"])
    cfg = load_scene(scene)
    grid = cfg.build_grid()
    assert grid.n == 512 > cfg.dense_cap
    ref = MediumSolver(grid, cfg.materials, 1.0, cfg.solver_tol, method="dense",
                       dense_cap=grid.n).green(np.asarray(ev), np.asarray(src))
    assert np.linalg.norm(G - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("command", [
    ["purcell", "--quad", "4x8", "--emitter", "1.25,0.3,-0.1", "--dipole", "0,0,1",
     "--omega-range", "1.0:1.0:1"],
    ["ldos-check", "--quad", "4x8", "--omega", "1.0", "--point", "1.25,0.3,-0.1"],
    ["modes", "--quad", "4x8", "--omega", "1.0", "--kdir", "0,0,1", "--eval", "points.csv"],
    ["validate"],
], ids=lambda argv: argv[0])
def test_cli_command_honours_scene_dense_cap(command, tmp_path, capsys, monkeypatch):
    """512 voxels against dense_cap 100: every command solves matrix-free."""
    import greenvox.vie as vie

    operators = []
    assemble = vie.assemble

    def recording(*args, **kwargs):
        operators.append(assemble(*args, **kwargs))
        return operators[-1]

    monkeypatch.setattr(vie, "assemble", recording)
    monkeypatch.chdir(tmp_path)
    scene = write(tmp_path, "big.yaml", BIG_CUBE_SCENE)
    write(tmp_path, "points.csv", "x,y,z\n1.25,0.3,-0.1\n")
    rc = cli_main([command[0], "--scene", str(scene), "--out-dir", str(tmp_path),
                   *command[1:]])
    capsys.readouterr()
    assert rc == 0
    # validate's vacuum closure (beta = 0) is the identity: no kernel and no lattice
    medium = [op for op in operators if np.any(op.beta)]
    assert medium and all(op.kernel is None and op.lattice is not None for op in medium)
    assert all(op.kernel is None for op in operators)


def test_cli_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    import greenvox.vie as vie

    def out_of_memory(*args, **kwargs):
        raise MemoryError("dense kernel exceeds the configured cap")

    monkeypatch.setattr(vie, "assemble", out_of_memory)
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["greens", "--scene", str(scene), "--omega", "1.0",
                   "--src", "0,0,0.9", "--eval", "1.2,0,0"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.strip().splitlines() == ["solver out of memory: dense kernel exceeds "
                                        "the configured cap"]


@pytest.mark.parametrize("command", [
    ["greens", "--omega", "1.0", "--src", "0,0,0.9", "--eval", "1.2,0,0"],
    ["validate"],
], ids=["greens", "validate"])
def test_cli_solver_error_exit_code(command, tmp_path, capsys, monkeypatch):
    """A SolverError raised by a command other than purcell, whose rows catch their
    own, exits 3 with one stderr line and no traceback."""
    import greenvox.vie as vie

    def stalled(*args, **kwargs):
        raise vie.SolverError("dense solve stalled at residual 1.000e-03 (target 1.0e-10)")

    monkeypatch.setattr(vie, "solve_system", stalled)
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main([command[0], "--scene", str(scene), *command[1:]])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.strip().splitlines() == ["solver failure: dense solve stalled at residual "
                                        "1.000e-03 (target 1.0e-10)"]


def test_cli_purcell_records_memory_error_per_row(tmp_path, capsys, monkeypatch):
    import greenvox.vie as vie

    assemble = vie.assemble

    def out_of_memory_at_0_9(grid, beta, omega, **kwargs):
        if omega == 0.9:
            raise MemoryError("dense kernel exceeds the configured cap")
        return assemble(grid, beta, omega, **kwargs)

    monkeypatch.setattr(vie, "assemble", out_of_memory_at_0_9)
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["purcell", "--scene", str(scene), "--emitter", "0.95,0.15,0.25",
                   "--dipole", "0,0,1", "--omega-range", "0.8:1.0:3",
                   "--out-dir", str(tmp_path), "--quad", "4x8"])
    capsys.readouterr()
    assert rc == 3
    rows = [r.split(",") for r in
            (tmp_path / "purcell.csv").read_text().strip().splitlines()[2:]]
    assert [float(r[0]) for r in rows] == [0.8, 0.9, 1.0]
    assert rows[1][1:5] == ["", "", "", ""] and "configured cap" in rows[1][5]
    for row in (rows[0], rows[2]):
        assert row[5] == "" and float(row[1]) > 0.0


def test_cli_module_entrypoint(tmp_path):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    proc = subprocess.run(
        [sys.executable, "-m", "greenvox.cli", "greens", "--scene", str(scene),
         "--omega", "1.0", "--src", "0,0,0.9", "--eval", "1.2,0,0",
         "--threads", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert "green" in payload


def test_cli_import_leaves_numpy_unloaded():
    """--threads can only pin BLAS if numpy loads after the CLI parses it."""
    import greenvox

    env = dict(os.environ, PYTHONPATH=str(Path(greenvox.__file__).resolve().parents[1]))
    code = ("import sys, greenvox.cli, greenvox; greenvox.__version__; "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def loaded_openblas():
    """(setter, getter) of the thread count of every OpenBLAS mapped into this process."""
    import ctypes

    import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS beside numpy's)

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    pools = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in [(p, s) for p in ("openblas", "scipy_openblas") for s in ("", "64_")]:
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter = getattr(handle, f"{prefix}_set_num_threads{suffix}")
                setter.argtypes, setter.restype = [ctypes.c_int], None
                pools.append((setter, getter))
                break
    return pools


def test_threads_pin_blas_already_loaded(tmp_path, capsys, monkeypatch):
    """With numpy and scipy loaded before the CLI runs in-process, --threads still sets
    every loaded OpenBLAS pool, not only the environment of pools yet to start."""
    pools = loaded_openblas() if Path("/proc/self/maps").exists() else []
    if not pools:
        pytest.skip("no OpenBLAS loaded")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    before = [getter() for _, getter in pools]
    try:
        for setter, _ in pools:
            setter(1)
        scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
        rc = cli_main(["greens", "--scene", str(scene), "--omega", "1.0", "--src", "0,0,0.9",
                       "--eval", "1.2,0,0", "--threads", "2"])
        capsys.readouterr()
        assert rc == 0
        assert [getter() for _, getter in pools] == [2] * len(pools)
    finally:
        for (setter, _), count in zip(pools, before):
            setter(count)


def test_threads_pin_an_openblas_loaded_after_the_policy(tmp_path):
    """A dense solve with a block wider than 400 (the 257-voxel sphere with a Lorentz box
    off its center keeps one of 771) loads scipy.linalg only when it factors; --threads 1
    pins that OpenBLAS too, through the environment the policy set, in a fresh process
    whose environment names no thread count."""
    import greenvox

    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS")
    scene = write(tmp_path, "lopsided.yaml", CUBE_SCENE.replace(
        "    poles: [{omega0: 1.5, omegap: 1.0, gamma: 0.4}]",
        "    poles: [{omega0: 0.0, omegap: 1.5, gamma: 0.3}]\n"
        "  - region_id: 2\n"
        "    poles: [{omega0: 1.5, omegap: 1.0, gamma: 0.4}]").replace(
        "  voxel_edge: 0.2\n  shapes:\n"
        "    - {kind: box, min_corner: [-0.4, -0.4, -0.4], max_corner: [0.4, 0.4, 0.4],\n"
        "       region_id: 1}",
        "  voxel_edge: 0.2497\n  shapes:\n"
        "    - {kind: sphere, center: [0, 0, 0], radius: 1.0, region_id: 1}\n"
        "    - {kind: box, min_corner: [0.3, 0.1, -0.2], max_corner: [0.8, 0.6, 0.3],\n"
        "       region_id: 2}"))
    code = ("import ctypes, sys\n"
            "from greenvox.cli import main\n"
            f"rc = main(['greens', '--scene', {str(scene)!r}, '--omega', '1.0', '--src',\n"
            "           '1.2,0.1,-0.1', '--eval', '-0.3,1.1,0.2', '--threads', '1'])\n"
            "libs = sorted({line.split()[-1] for line in open('/proc/self/maps')\n"
            "               if 'openblas' in line.lower()})\n"
            "counts = []\n"
            "for lib in libs:\n"
            "    handle = ctypes.CDLL(lib)\n"
            "    for name in ('openblas_get_num_threads', 'openblas_get_num_threads64_',\n"
            "                 'scipy_openblas_get_num_threads',\n"
            "                 'scipy_openblas_get_num_threads64_'):\n"
            "        getter = getattr(handle, name, None)\n"
            "        if getter is not None:\n"
            "            getter.restype = ctypes.c_int\n"
            "            counts.append(getter())\n"
            "            break\n"
            "print(rc, 'scipy.linalg' in sys.modules, len(libs), counts, file=sys.stderr)\n")
    env = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(greenvox.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, linalg, libs, counts = proc.stderr.strip().splitlines()[-1].split(" ", 3)
    assert (rc, linalg) == ("0", "True") and int(libs) >= 2
    assert counts == str([1] * int(libs))


#: the package surface: adding or removing an export changes this list
EXPORTS = [
    "Box", "DecayRates", "EmitterSpec", "GridError", "InteractionOperator", "LorentzPole",
    "MaskShape", "MedModeIndex", "MediumSolver", "NearSingularError", "PermittivityModel",
    "PlaneWaveMode", "PrincipalValueQuadrature", "SceneConfig", "SceneError", "SolverError",
    "Sphere", "SphereQuadrature", "UnitSystem", "VoxelGrid", "assemble", "build_grid",
    "coupling_alpha_tilde", "dyson_residual", "e_coefficient", "e_coefficient_via_green",
    "eps_on_grid", "eval_eps", "fd_curl", "fd_curl_curl", "g0_closed", "g0_longitudinal",
    "gamma_decomposed", "im_g0_spectral", "im_green_at", "kk_residual",
    "ldos_identity_residual", "load_scene", "m_coefficient", "make_shell_quadrature",
    "noise_current_amplitude", "phi_plane_wave", "purcell", "purcell_sweep", "scalar_green",
    "scaled_contrast", "scene_to_dict", "self_term", "solve_system", "sommerfeld_residual",
    "u_numerator_e", "u_numerator_m", "v_component_e", "v_component_m", "vacuum_decay_rate",
]


def test_package_exports_resolve_lazily():
    import greenvox

    assert sorted(greenvox.__all__) == EXPORTS
    for name in greenvox.__all__:
        assert getattr(greenvox, name) is not None, name
    assert greenvox.scene.load_scene is load_scene
    for gone in ("Constants", "to_internal", "from_internal", "FieldCoefficientSample",
                 "no_such_export"):
        with pytest.raises(AttributeError):
            getattr(greenvox, gone)


def test_cli_validate_si_scene(tmp_path, capsys):
    """The whole identity suite runs through the SI conversion boundary."""
    c = 2.99792458e8
    L0 = 1e-6
    f = c / L0
    si_text = f"""
schema_version: 1
units: {{system: SI, reference_length: {L0!r}}}
materials:
  - region_id: 1
    poles: [{{omega0: {1.5 * f!r}, omegap: {1.0 * f!r}, gamma: {0.4 * f!r}}}]
geometry:
  voxel_edge: {0.2 * L0!r}
  shapes:
    - {{kind: box, min_corner: [{-0.4 * L0!r}, {-0.4 * L0!r}, {-0.4 * L0!r}],
       max_corner: [{0.4 * L0!r}, {0.4 * L0!r}, {0.4 * L0!r}], region_id: 1}}
runs:
  validate: {{omega: {1.0 * f!r}}}
"""
    scene = write(tmp_path, "si.yaml", si_text)
    rc = cli_main(["validate", "--scene", str(scene)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "[FAIL]" not in out


def test_operator_past_the_complex64_range_is_factored_in_complex128(tmp_path, monkeypatch):
    """omegap = 1e25 puts beta K near 1e48, past complex64: the blocks go straight to
    complex128 factors, the CLI prints no numpy warning, and G is the complex128
    dense answer to the solver tolerance.  The cube's blocks are small enough for
    complex128 factors anyway, so the in-process solver sets the crossover to 0: its
    complex128 factors then come from the norm alone."""
    import greenvox
    import greenvox.vie as vie
    from greenvox import MediumSolver, g0_closed
    from conftest import pairwise_kernel

    scene = write(tmp_path, "cube.yaml", CUBE_SCENE.replace("omegap: 1.0,", "omegap: 1.0e25,"))
    env = dict(os.environ, PYTHONPATH=str(Path(greenvox.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "greenvox.cli", "greens", "--scene", str(scene),
         "--omega", "1", "--src", "0,0,2", "--eval", "0,0,3", "--threads", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    green = json.loads(proc.stdout)["green"]
    G = np.array(green["re"]) + 1j * np.array(green["im"])

    cfg = load_scene(scene)
    monkeypatch.setattr(vie, "_DOUBLE_LU_MAX", 0)
    solver = MediumSolver(cfg.build_grid(), cfg.materials, 1.0, cfg.solver_tol, method="dense")
    x, y = np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, 2.0])
    assert np.linalg.norm(solver.green(x, y) - G) <= cfg.solver_tol * np.linalg.norm(G)
    assert solver.op.factored == [np.complex128]
    A = np.eye(solver.op.n3) - pairwise_kernel(solver.grid, 1.0) * solver.op.beta_rep
    X = np.linalg.solve(A, solver.source_columns(y)).reshape(solver.grid.n, 3, 3)
    reference = g0_closed(x, y, 1.0) + solver.scattered_at(x, X)
    assert np.linalg.norm(G - reference) <= cfg.solver_tol * np.linalg.norm(reference)


def test_an_underflowing_scene_dipole_keeps_the_purcell_factor(tmp_path):
    """A scene dipole whose square underflows (1e-160) or whose np.linalg.norm does
    (1e-300) passes every check of validate on the 64-voxel cube, with the Purcell
    factor of the unit dipole along it: rates are computed on d / |d| and scaled by
    |d|^2 after."""
    from greenvox.report import run_validation

    purcell = {}
    for size in ("1.0", "1.0e-160", "1.0e-300"):
        text = CUBE_SCENE.replace("validate: {omega: 1.0}",
                                  f"validate: {{omega: 1.0, dipole: [{size}, 0, 0]}}")
        report = run_validation(load_scene(write(tmp_path, "scene.yaml", text)))
        assert report.passed, [c.name for c in report.checks if not c.passed]
        purcell[size] = report.outputs["purcell"]
    assert all(abs(p - purcell["1.0"]) <= 1e-12 * purcell["1.0"] for p in purcell.values())
