import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from greenvox import SceneError, load_scene, purcell, scene_to_dict
from greenvox.cli import main as cli_main
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
    c = natural.units.constants.c
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
    # note the = form: argparse would otherwise read "-0.2,..." as an option
    rc = cli_main(["greens", "--scene", str(scene), "--omega", "1.0",
                   "--src=-0.2,0.95,0.4", "--eval", "1.1,0.25,-0.15"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    G = np.array(payload["green"]["re"]) + 1j * np.array(payload["green"]["im"])
    from greenvox import green_medium
    cfg = load_scene(scene)
    expected = green_medium(cfg.build_grid(), cfg.materials, 1.0,
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
                     "ldos_identity_m_form", "ldos_forms_agreement",
                     "compensation_exact", "compensation_mu_route",
                     "vacuum_purcell", "vacuum_gamma_e"):
        assert expected in names


def test_cli_validate_fails_with_coarse_quadrature(tmp_path, capsys):
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["validate", "--scene", str(scene), "--quad", "2x4"])
    capsys.readouterr()
    assert rc == 2


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.yaml", "materials: 7\n")
    rc = cli_main(["validate", "--scene", str(bad)])
    capsys.readouterr()
    assert rc == 4


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # a nonpositive frequency in the sweep fails its row, itemized, exit 3
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["purcell", "--scene", str(scene), "--emitter", "0.95,0.15,0.25",
                   "--dipole", "0,0,1", "--omega-range=-0.5:1.0:2",
                   "--out-dir", str(tmp_path), "--quad", "2x4"])
    capsys.readouterr()
    assert rc == 3
    rows = (tmp_path / "purcell.csv").read_text().strip().splitlines()
    assert any("positive" in r for r in rows)


BIG_CUBE_SCENE = CUBE_SCENE.replace(
    "min_corner: [-0.4, -0.4, -0.4], max_corner: [0.4, 0.4, 0.4]",
    "min_corner: [-0.8, -0.8, -0.8], max_corner: [0.8, 0.8, 0.8]") + "solver: {dense_cap: 100}\n"


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


def test_cli_memory_error_exit_code(tmp_path, capsys, monkeypatch):
    import greenvox.vie as vie

    def out_of_memory(*args, **kwargs):
        raise vie.DenseCapError("dense kernel exceeds the configured cap")

    monkeypatch.setattr(vie, "assemble", out_of_memory)
    scene = write(tmp_path, "cube.yaml", CUBE_SCENE)
    rc = cli_main(["greens", "--scene", str(scene), "--omega", "1.0",
                   "--src", "0,0,0.9", "--eval", "1.2,0,0"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.strip().splitlines() == ["solver out of memory: dense kernel exceeds "
                                        "the configured cap"]


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


def test_package_exports_resolve_lazily():
    import greenvox

    for name in greenvox.__all__:
        assert getattr(greenvox, name) is not None, name
    assert greenvox.scene.load_scene is load_scene
    with pytest.raises(AttributeError):
        greenvox.no_such_export


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
