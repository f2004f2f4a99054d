"""The four workloads: generated input files, CLI argv lists and checks.

A workload is a cycle of ops. Each op is one `tropehrhart` CLI command with
its argv, a stated input size, and a check that judges the parsed JSON
report against facts the benchmark knows independently of the program
(the paper's identities, values fixed by construction, or a count the
benchmark makes itself). The timed loop runs the cycle over and over.

Bundle sizes are stated, not drawn. Every bundle of the pool is redrawn
until its stated size matches the tables below; each size is the median,
over 400 draws of the generator (seed 0), of the draws with a nonzero size
(for hyperplanes: bundles with at least one difference hyperplane, and for
sections2d also a global section; for refined rays: fans the lines actually
refine). Even at a fixed size the cost of one draw varies up to 3x (P3 with
U(3,5) at 5 hyperplanes and a 343-point chi box: alpha-eval 284-953 ms over
eight draws), so the pool is drawn once, from POOL_SEED, and the
run's --seed picks an isomorphic relabelling of every pool bundle (a fan
symmetry on the rows, a permutation of the ground set on the columns).
That keeps the load of any two seeds comparable while the files differ.
Chain files are handled the same way: a pool of point clouds at stated
counts, and a seeded signed permutation of coordinates. The taut matroids
are fixed; the seed orders their bases and the op cycle.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import gen

# (fan, r, m) -> distinct branch-difference hyperplanes of the bundle
SECTIONS2D_SHAPES = [
    ("P2", 2, 4, 2), ("P2", 3, 5, 2),
    ("P1xP1", 2, 4, 2), ("P1xP1", 3, 5, 3),
    ("hexagon", 2, 4, 3), ("hexagon", 3, 5, 4),
]
SECTIONS2D_PER_SHAPE = 4
GEOM3D_SHAPES = [
    ("P3", 2, 4, 3), ("P3", 3, 5, 5),
    ("P1^3", 2, 4, 3), ("P1^3", 3, 5, 4),
]
# (dim, points per piece); three pieces per chain file
GEOM3D_CLOUDS = [(3, 20), (3, 40), (4, 12), (4, 16)]
# (fan, r, m) -> ray count of the fan refined by the difference lines
HRR_SHAPES = [
    ("P2", 2, 4, 5), ("P2", 3, 5, 6),
    ("P1xP1", 2, 4, 6), ("P1xP1", 3, 5, 8),
    ("hexagon", 2, 4, 8),
]
# (r, m, --max-coord or None for the default box)
TAUT_SHAPES = [(2, 5, None), (3, 5, None), (2, 6, 2), (3, 6, 2)]

WORKLOADS = ("sections2d", "geom3d", "hrr", "taut")
POOL_SEED = 0
FANO_TOTAL = 27


class Op:
    """One CLI command: argv, stated size, and a check on its report."""

    def __init__(self, label, argv, size, check):
        self.label = label
        self.argv = argv
        self.size = size
        self.check = check  # report dict -> error string or None


class Workload:
    def __init__(self, ops, reference_ops=()):
        self.ops = ops
        # ops run once, untimed, before the timed loop, to learn values the
        # timed ops are checked against; their checks count as well
        self.reference_ops = list(reference_ops)


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _expect(report, **want):
    for key, value in want.items():
        if report.get(key) != value:
            return f"{key} = {report.get(key)!r}, expected {value!r}"
    return None


def _bundle_ops(bundle, path, size, commands, known):
    """Ops on one bundle file; `known` collects chi_total per bundle path."""
    fano = bundle.name == "fano"
    r = len(bundle.bases[0])

    def check_validate(rep):
        return _expect(rep, valid=True, rank=r, rays=len(bundle.rays),
                       ground_size=bundle.m)

    def check_chi(rep):
        if fano and rep.get("chi_total") != FANO_TOTAL:
            return f"Fano chi_total = {rep.get('chi_total')!r}"
        if not isinstance(rep.get("chi_total"), int):
            return "chi_total missing"
        known[path] = rep["chi_total"]
        return None

    def check_h0(rep):
        total = rep.get("h0_total")
        listed = sum(e["h0"] for e in rep.get("nonzero", []))
        if total != listed:
            return f"h0_total {total!r} != sum of nonzero entries {listed}"
        if fano and total != FANO_TOTAL:
            return f"Fano h0_total = {total!r}"
        return None

    def check_alpha(rep):
        if path not in known:
            return "no chi_total to compare alpha_total with"
        return _expect(rep, alpha_total=known[path])

    def check_resolve(rep):
        return _expect(rep, k_class_identity=True)

    def check_hrr(rep):
        if path not in known:
            return "no chi_total to compare rhs with"
        if fano and rep.get("lhs") != f"{FANO_TOTAL}/1":
            return f"Fano lhs = {rep.get('lhs')!r}"
        err = _expect(rep, equal=True, rhs=known[path])
        if err:
            return err
        return None if Fraction(rep["lhs"]) == known[path] else "lhs != chi_total"

    table = {
        "validate": (["validate"], check_validate),
        "chi": (["chi"], check_chi),
        "h0": (["h0"], check_h0),
        "alpha-eval": (["alpha-eval"], check_alpha),
        "resolve": (["resolve"], check_resolve),
        "hrr": (["hrr"], check_hrr),
    }
    ops = []
    for cmd in commands:
        argv, check = table[cmd]
        ops.append(Op(f"{cmd} {bundle.name}", argv + ["--bundle", path], size, check))
    return ops


def _seeded_bundles(seed, shapes, size_name, size_of, per_shape=1, accept=None):
    out = []
    for k in range(per_shape):
        for fan, r, m, target in shapes:
            label = f"{fan}-{r}-{m}-{k}"
            b = gen.uniform_bundle(gen.rng_for(POOL_SEED, label), fan, r, m,
                                   size_of, target, accept)
            b = gen.relabel(b, gen.rng_for(seed, label))
            b.name += f"#{k}"
            out.append((b, f"{size_name}={target}"))
    return out


def _fano(seed):
    return gen.relabel(gen.fano_bundle(), gen.rng_for(seed, "fano")), "fixed (Fano)"


def _bundle_workload(workdir, bundles, commands, reference=()):
    known = {}
    ops, refs = [], []
    per_bundle = []
    for i, (b, size) in enumerate(bundles):
        path = _write(workdir, f"bundle{i}-{b.name}.json", b.to_json())
        per_bundle.append(_bundle_ops(b, path, size, commands, known))
        refs += _bundle_ops(b, path, size, reference, known)
    # command-major order spreads each command's cost evenly over the cycle
    for k in range(len(commands)):
        ops += [bundle_ops[k] for bundle_ops in per_bundle]
    return Workload(ops, refs)


def _chain_ops(seed, workdir):
    ops = []
    for dim, npoints in GEOM3D_CLOUDS:
        label = f"cloud-{dim}-{npoints}"
        chain = gen.point_cloud_chain(gen.rng_for(POOL_SEED, label), dim, npoints)
        chain = gen.relabel_chain(chain, gen.rng_for(seed, label))
        path = _write(workdir, f"chain-{dim}d-{npoints}.json", chain)
        size = f"dim={dim},points_per_piece={npoints}"
        coeff_sum = sum(t["coeff"] for t in chain["terms"])
        origin = (0,) * dim
        far = gen.chain_far_point(chain)
        for u, want in ((origin, coeff_sum), (far, 0)):
            text = ",".join(str(x) for x in u)
            ops.append(Op(
                f"alpha-eval chain {dim}d/{npoints} u={text}",
                ["alpha-eval", "--chain", path, "--u", text], size,
                lambda rep, u=u, want=want: _expect(rep, u=list(u), value=want),
            ))
    return ops


def build(name, seed, workdir):
    """Generate the inputs of one workload into workdir and return its ops."""
    if name == "sections2d":
        bundles = [_fano(seed)]
        # h0 needs a nonempty parliament: on a bundle without global
        # sections it raises IndexError (see README.md, "Known defect")
        bundles += _seeded_bundles(seed, SECTIONS2D_SHAPES, "hyperplanes",
                                   gen.hyperplane_count, SECTIONS2D_PER_SHAPE,
                                   gen.Bundle.has_sections)
        return _bundle_workload(workdir, bundles,
                                ["validate", "chi", "h0", "alpha-eval", "resolve"])
    if name == "geom3d":
        bundles = _seeded_bundles(seed, GEOM3D_SHAPES, "hyperplanes",
                                  gen.hyperplane_count)
        w = _bundle_workload(workdir, bundles, ["chi", "alpha-eval"])
        chains = _chain_ops(seed, workdir)
        # interleave chain evaluations with the bundle ops
        mixed = []
        for i in range(max(len(w.ops), len(chains))):
            mixed += w.ops[i:i + 1] + chains[i:i + 1]
        w.ops = mixed
        return w
    if name == "hrr":
        bundles = [_fano(seed)]
        bundles += _seeded_bundles(seed, HRR_SHAPES, "refined_rays",
                                   gen.Bundle.refined_rays_2d)
        return _bundle_workload(workdir, bundles, ["hrr"],
                                reference=["chi"])
    if name == "taut":
        ops = []
        for r, m, max_coord in TAUT_SHAPES:
            rng = gen.rng_for(seed, f"taut-{r}-{m}")
            path = _write(workdir, f"u{r}{m}.json", gen.uniform_matroid_json(rng, r, m))
            bound = max_coord if max_coord is not None else max(m, 2)
            points = gen.slice_box_count(m, bound)
            argv = ["taut-check", "--matroid", path]
            if max_coord is not None:
                argv += ["--max-coord", str(max_coord)]

            def check(rep, points=points):
                err = _expect(rep, all_equal=True, failures=[])
                if err:
                    return err
                got = rep.get("verified_box", {}).get("points")
                return None if got == points else f"points {got!r} != {points}"

            ops.append(Op(f"taut-check U({r},{m})", argv,
                          f"points={points},m={m}", check))
        gen.rng_for(seed, "taut-order").shuffle(ops)
        return Workload(ops)
    raise ValueError(f"unknown workload {name!r}")
