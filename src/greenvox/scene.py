"""Scene files: parsing, validation, unit conversion, canonical form.

A scene is a single YAML document describing units, materials, geometry
and solver/quadrature controls, plus optional per-subcommand run blocks,
of which only runs.validate takes fields (omega and the probes x, y,
emitter, dipole); the other commands read their command-line flags:

    schema_version: 1
    units: {system: natural, reference_length: 1.0}
    materials:
      - region_id: 1
        poles: [{omega0: 1.5, omegap: 1.0, gamma: 0.4}]
    geometry:
      voxel_edge: 0.2
      shapes:
        - {kind: box, min_corner: [-0.4, -0.4, -0.4],
           max_corner: [0.4, 0.4, 0.4], region_id: 1}
    solver: {tol: 1.0e-10, dense_cap: 1000}
    quadrature: {n_theta: 8, n_phi: 16}
    runs:
      validate: {omega: 1.0}

Validation accumulates every schema error before failing.  For SI
scenes all quantities are converted to internal natural units on load
(the reference length defaults to the bounding-box diagonal of the
geometry), so downstream code never sees SI numbers.  The canonical
dictionary of the resolved, internal-unit scene is hashed into
config_hash; identical hashes guarantee identical numeric payloads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from .constants import MAX_QUADRATURE_ORDER, NUMBER_RANGE, UnitSystem
from .geometry import Box, GridError, MaskShape, Sphere, VoxelGrid, build_grid
from .permittivity import LorentzPole, PermittivityModel, _distinct

SCHEMA_VERSION = 1

_DEFAULTS = {
    "solver": {"tol": 1e-10, "dense_cap": 1000},
    "quadrature": {"n_theta": 8, "n_phi": 16},
}

_KNOWN_TOP = {"schema_version", "units", "materials", "geometry", "solver",
              "quadrature", "runs"}
_KNOWN_RUNS = {"greens", "modes", "purcell", "ldos_check", "validate"}

#: geometric shape kinds: class and the unit kind of each field besides
#: region_id; a mask shape is a file path and has its own branch
_SHAPE_FIELDS = {
    "sphere": (Sphere, {"center": "length[3]", "radius": "length"}),
    "box": (Box, {"min_corner": "length[3]", "max_corner": "length[3]"}),
}


class SceneError(ValueError):
    """Scene file rejected; .errors lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid scene:\n  - " + "\n  - ".join(self.errors))


@dataclass
class SceneConfig:
    """Fully validated scene, all quantities in internal natural units."""

    units: UnitSystem
    materials: dict[int, PermittivityModel]
    shapes: list
    voxel_edge: float | None
    solver_tol: float
    dense_cap: int
    n_theta: int
    n_phi: int
    runs: dict = field(default_factory=dict)
    config_hash: str = ""
    source_path: str | None = None

    @cached_property
    def grid(self) -> VoxelGrid:
        """The voxel grid, built once and shared by the solvers of every frequency.

        Raises GridError when a voxel carries a region id no material
        declares, which only a mask can do.
        """
        grid = build_grid(self.shapes, self.voxel_edge)
        missing = sorted(set(_distinct(grid.material_ids).tolist()) - set(self.materials))
        if missing:
            raise GridError(f"mask region id {', '.join(map(str, missing))} "
                            "has no material definition")
        return grid

    def build_grid(self) -> VoxelGrid:
        return self.grid

    def solver(self, omega: float):
        """The scene's MediumSolver at omega; the one place its solve policy is applied."""
        from .vie import MediumSolver  # loading a scene does not load scipy

        return MediumSolver(self.grid, self.materials, omega, self.solver_tol,
                            dense_cap=self.dense_cap)


def _integer(raw) -> bool:
    """raw is an int and not a bool: YAML reads true and false as bools, which are ints."""
    return isinstance(raw, int) and not isinstance(raw, bool)


def _number(ctx, raw, errors, positive=False):
    # YAML 1.1 reads "1e-06" (no decimal point) as a string; accept it
    if isinstance(raw, str):
        try:
            raw = float(raw)
        except ValueError:
            pass
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        errors.append(f"{ctx}: expected a number, got {raw!r}")
        return None
    v, (lo, hi) = float(raw), NUMBER_RANGE
    if not abs(v) <= hi:
        errors.append(f"{ctx}: must be finite and at most {hi:g} in magnitude, got {v}")
        return None
    if positive and not v >= lo:
        errors.append(f"{ctx}: must be strictly positive, at least {lo:g}, got {v}")
        return None
    return v


def _vector3(ctx, raw, errors):
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        errors.append(f"{ctx}: expected a 3-vector")
        return None
    out = [_number(f"{ctx}[{i}]", v, errors) for i, v in enumerate(raw)]
    return None if any(v is None for v in out) else tuple(out)


def _value(ctx, raw, kind, errors, positive=False):
    """A number, or a 3-vector when kind ends in "[3]"; None after an error."""
    if kind.endswith("[3]"):
        return _vector3(ctx, raw, errors)
    return _number(ctx, raw, errors, positive=positive)


def _to_internal(units: UnitSystem, value, kind):
    if kind.endswith("[3]"):
        return tuple(units.to_internal(v, kind[:-3]) for v in value)
    return units.to_internal(value, kind)


def _block(ctx, raw, kind, errors):
    """raw when it is a kind (dict or list), empty when it is null; else an error."""
    if raw is None:
        return kind()
    if not isinstance(raw, kind):
        errors.append(f"{ctx}: expected a {'mapping' if kind is dict else 'list'}")
        return kind()
    return raw


def _check_unknown(ctx, block, known, errors):
    for key in block:
        if key not in known:
            errors.append(f"{ctx}: unknown field {key!r}")


def load_scene(path) -> SceneConfig:
    """Load and validate a scene file; raises SceneError listing all defects.

    The file is parsed by libyaml when PyYAML was built with it (the same
    safe loader, several times faster), else by the pure-Python parser.
    """
    path = Path(path)
    try:
        raw = yaml.load(path.read_bytes(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise SceneError([f"scene file {path} does not exist"]) from None
    except OSError as exc:  # such as a directory, or a name too long for the file system
        raise SceneError([f"scene file {path} cannot be read: {exc.strerror or exc}"]) from None
    except yaml.YAMLError as exc:  # bytes that are not UTF-8 text too, with a reason, no mark
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or getattr(exc, "reason", exc)
        raise SceneError([f"scene file {path}: parse error{loc}: {problem}"]) from exc
    if not isinstance(raw, dict):
        raise SceneError(["scene must be a mapping"])
    return scene_from_dict(raw, source_path=str(path), base_dir=path.parent)


def scene_from_dict(raw: dict, source_path=None, base_dir=None) -> SceneConfig:
    errors: list[str] = []
    _check_unknown("scene", raw, _KNOWN_TOP, errors)

    version = raw.get("schema_version", SCHEMA_VERSION)
    if not _integer(version) or version != SCHEMA_VERSION:
        errors.append(f"unsupported schema_version {version!r} (supported: {SCHEMA_VERSION})")

    # units -------------------------------------------------------------
    ublock = _block("units", raw.get("units"), dict, errors)
    _check_unknown("units", ublock, {"system", "reference_length"}, errors)
    system = ublock.get("system", "natural")
    if system not in ("SI", "natural"):
        errors.append(f"units.system: expected 'SI' or 'natural', got {system!r}")
        system = "natural"
    ref_len = ublock.get("reference_length")
    if ref_len is not None:
        ref_len = _number("units.reference_length", ref_len, errors, positive=True)

    # materials ----------------------------------------------------------
    parsed_materials = []
    for i, m in enumerate(_block("materials", raw.get("materials"), list, errors)):
        ctx = f"materials[{i}]"
        if not isinstance(m, dict):
            errors.append(f"{ctx}: expected a mapping")
            continue
        _check_unknown(ctx, m, {"region_id", "poles"}, errors)
        rid = m.get("region_id")
        if not _integer(rid) or rid <= 0:
            errors.append(f"{ctx}.region_id: expected a positive integer")
            continue
        poles = []
        for j, p in enumerate(_block(f"{ctx}.poles", m.get("poles"), list, errors)):
            pctx = f"{ctx}.poles[{j}]"
            if not isinstance(p, dict):
                errors.append(f"{pctx}: expected a mapping")
                continue
            _check_unknown(pctx, p, {"omega0", "omegap", "gamma"}, errors)
            vals = {k: _number(f"{pctx}.{k}", p.get(k, None), errors) for k in
                    ("omega0", "omegap", "gamma")}
            if None not in vals.values():
                try:  # the signs LorentzPole demands hold in any positive unit
                    LorentzPole(**vals)
                    poles.append(vals)
                except ValueError as exc:
                    errors.append(f"{pctx}: {exc}")
        parsed_materials.append((rid, poles))

    # geometry -----------------------------------------------------------
    gblock = _block("geometry", raw.get("geometry"), dict, errors)
    _check_unknown("geometry", gblock, {"voxel_edge", "shapes"}, errors)
    voxel_edge = gblock.get("voxel_edge")
    if voxel_edge is not None:
        voxel_edge = _number("geometry.voxel_edge", voxel_edge, errors, positive=True)
    shapes_raw = gblock.get("shapes", [])
    if not isinstance(shapes_raw, list) or not shapes_raw:
        errors.append("geometry.shapes: expected a nonempty list")
        shapes_raw = []
    parsed_shapes = []
    declared_ids = {rid for rid, _ in parsed_materials}
    for i, s in enumerate(shapes_raw):
        ctx = f"geometry.shapes[{i}]"
        if not isinstance(s, dict):
            errors.append(f"{ctx}: expected a mapping")
            continue
        kind = s.get("kind")
        if isinstance(kind, str) and kind in _SHAPE_FIELDS:
            fields = _SHAPE_FIELDS[kind][1]
            _check_unknown(ctx, s, {"kind", "region_id", *fields}, errors)
            params = {name: _value(f"{ctx}.{name}", s.get(name), unit, errors, positive=True)
                      for name, unit in fields.items()}
            rid = s.get("region_id")
            if not _integer(rid):
                errors.append(f"{ctx}.region_id: expected an integer")
            elif rid not in declared_ids:
                errors.append(f"{ctx}.region_id: dangling region id {rid}")
            elif None not in params.values():
                parsed_shapes.append((kind, {**params, "region_id": rid}))
        elif kind == "mask":
            _check_unknown(ctx, s, {"kind", "path"}, errors)
            p = s.get("path")
            if not isinstance(p, str):
                errors.append(f"{ctx}.path: expected a string")
            elif system == "SI":
                errors.append(f"{ctx}: mask shapes are not supported in SI scenes")
            else:
                full = str((Path(base_dir) / p) if base_dir is not None else Path(p))
                parsed_shapes.append(("mask", {"path": full}))
        else:
            errors.append(f"{ctx}.kind: expected sphere, box or mask, got {kind!r}")

    # solver / quadrature --------------------------------------------------
    sblock = {**_DEFAULTS["solver"], **_block("solver", raw.get("solver"), dict, errors)}
    _check_unknown("solver", sblock, {"tol", "dense_cap"}, errors)
    tol = _number("solver.tol", sblock["tol"], errors, positive=True)
    dense_cap = sblock["dense_cap"]
    if not _integer(dense_cap) or dense_cap <= 0:
        errors.append("solver.dense_cap: expected a positive integer")
        dense_cap = _DEFAULTS["solver"]["dense_cap"]

    qblock = {**_DEFAULTS["quadrature"],
              **_block("quadrature", raw.get("quadrature"), dict, errors)}
    _check_unknown("quadrature", qblock, {"n_theta", "n_phi"}, errors)
    n_theta, n_phi = qblock["n_theta"], qblock["n_phi"]
    for name, v in (("n_theta", n_theta), ("n_phi", n_phi)):
        if not _integer(v) or v < 2:
            errors.append(f"quadrature.{name}: expected an integer >= 2")
        elif v > MAX_QUADRATURE_ORDER:
            errors.append(f"quadrature.{name}: expected at most {MAX_QUADRATURE_ORDER}, got {v}")

    runs = _block("runs", raw.get("runs"), dict, errors)
    _check_unknown("runs", runs, _KNOWN_RUNS, errors)
    parsed_runs = _parse_runs(runs, errors)

    if errors:
        raise SceneError(errors)

    # resolve units: build geometric shapes, convert SI -> internal -------
    shapes_internal = []
    try:
        if ref_len is None:
            ref_len = _default_reference_length(parsed_shapes)
        units = UnitSystem(mode=system, L0=ref_len)
        for kind, params in parsed_shapes:
            if kind == "mask":
                shapes_internal.append(MaskShape(**params))
            else:
                cls, fields = _SHAPE_FIELDS[kind]
                shapes_internal.append(cls(region_id=params["region_id"], **{
                    name: _to_internal(units, params[name], unit) for name, unit in fields.items()}))
    except GridError as exc:
        raise SceneError([str(exc)]) from None

    materials = {rid: PermittivityModel(region_id=rid, poles=tuple(
        LorentzPole(**{k: _to_internal(units, v, "frequency") for k, v in p.items()})
        for p in poles)) for rid, poles in parsed_materials}

    runs_internal = {name: {key: _to_internal(units, value, _RUN_FIELD_KINDS[key])
                            for key, value in block.items()}
                     for name, block in parsed_runs.items()}

    cfg = SceneConfig(units=units, materials=materials, shapes=shapes_internal,
                      voxel_edge=voxel_edge and _to_internal(units, voxel_edge, "length"),
                      solver_tol=tol, dense_cap=dense_cap,
                      n_theta=n_theta, n_phi=n_phi, runs=runs_internal,
                      source_path=source_path)
    cfg.config_hash = hashlib.sha256(
        json.dumps(scene_to_dict(cfg), sort_keys=True).encode()).hexdigest()
    return cfg


def _default_reference_length(parsed_shapes) -> float:
    """Bounding-box diagonal of the declared geometric shapes (1.0 fallback)."""
    boxes = [_SHAPE_FIELDS[kind][0](**params).bounding_box()
             for kind, params in parsed_shapes if kind in _SHAPE_FIELDS]
    if not boxes:
        return 1.0
    los, his = zip(*boxes)
    return float(np.linalg.norm(np.max(his, axis=0) - np.min(los, axis=0)))


#: unit kinds of the runs.validate fields; the other run blocks take no
#: fields, since their commands read everything from flags
_RUN_FIELD_KINDS = {
    "omega": "frequency",
    "x": "length[3]",
    "y": "length[3]",
    "emitter": "length[3]",
    "dipole": "dipole[3]",
}


def _parse_runs(runs: dict, errors) -> dict:
    """Run blocks with every field parsed, in scene units.

    Frequencies are positive, the dipole is nonzero and x lies at least 1e-30 from y,
    since EmitterSpec and G(x, y) would raise on them after the solve.
    """
    out = {}
    for block_name, block in runs.items():
        if not isinstance(block, dict):
            errors.append(f"runs.{block_name}: expected a mapping")
            continue
        parsed = {}
        for key, value in block.items():
            ctx = f"runs.{block_name}.{key}"
            if block_name != "validate":
                errors.append(f"{ctx}: unknown field (only runs.validate takes fields; "
                              f"{block_name} reads its command-line flags)")
            elif key not in _RUN_FIELD_KINDS:
                errors.append(f"{ctx}: unknown field")
            else:
                kind = _RUN_FIELD_KINDS[key]
                value = _value(ctx, value, kind, errors, positive=kind == "frequency")
                if value is not None:
                    parsed[key] = value
        if "dipole" in parsed and not math.hypot(*parsed["dipole"]) > 0.0:
            errors.append(f"runs.{block_name}.dipole: must be a nonzero vector")
        if {"x", "y"} <= parsed.keys() and math.dist(parsed["x"], parsed["y"]) < NUMBER_RANGE[0]:
            errors.append(f"runs.{block_name}.y: within 1e-30 of x, where G diverges")
        out[block_name] = parsed
    return out


def scene_to_dict(cfg: SceneConfig) -> dict:
    """Canonical dictionary of the resolved scene in internal units."""
    kinds = {cls: kind for kind, (cls, _) in _SHAPE_FIELDS.items()} | {MaskShape: "mask"}
    shapes = [{"kind": kinds[type(s)], **_plain(asdict(s))} for s in cfg.shapes]
    return {
        "schema_version": SCHEMA_VERSION,
        # canonical form is always the internal-unit scene; loading it back
        # performs no conversion, which makes serialize(load(.)) idempotent
        "units": {"system": "natural", "reference_length": cfg.units.L0},
        "materials": [
            {"region_id": rid,
             "poles": [{"omega0": p.omega0, "omegap": p.omegap, "gamma": p.gamma}
                       for p in model.poles]}
            for rid, model in sorted(cfg.materials.items())],
        "geometry": {"voxel_edge": cfg.voxel_edge, "shapes": shapes},
        "solver": {"tol": cfg.solver_tol, "dense_cap": cfg.dense_cap},
        "quadrature": {"n_theta": cfg.n_theta, "n_phi": cfg.n_phi},
        "runs": {k: _plain(v) for k, v in sorted(cfg.runs.items())},
    }


def _plain(block: dict) -> dict:
    """Tuples as lists, so the canonical dictionary is plain JSON/YAML data."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in block.items()}
