"""Command line interface.

Subcommands: lattice, disc, glue, k3, ns, ell, verify-paper.  Output is JSON;
``--json`` wraps it in a machine envelope {"status", "payload", "diagnostics"}.
Exit codes: 0 ok, 1 domain error or failed check (with a machine-readable
code), 2 usage error, 3 malformed JSON input.  Output is deterministic for
fixed input; the seeded checks take ``--seed``.

A process executes only the layer modules its command uses: importing this
module registers each layer in ``sys.modules`` through
``importlib.util.LazyLoader``, and a layer runs on the first attribute read
(``lattice info`` runs ``errors``, ``linalg`` and ``lattice``; ``verify-paper``
runs all of them).  Registering, rather than importing inside the handlers,
keeps ``sys.modules["k3lat.<layer>"]`` filled for code outside the package
that reads the layers from there after ``import k3lat.cli``.  The parser's
choices and defaults live in ``lattice``, which every command runs anyway.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from .errors import JsonInputError, K3LatError, UnsupportedError, decimal


def _lazy(name: str):
    """``k3lat.<name>``, registered in ``sys.modules`` now and executed on first attribute access.

    A module something has imported already is returned as it is.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)  # as an import of the submodule would
    return module


# every layer module, so ``from . import linalg, polyfactor`` inside a layer binds
# them unexecuted too; only what a command touches runs
linalg, polyfactor, lattice, discforms, gluing, involution, nsfamilies, elliptic, verify = map(
    _lazy,
    ("linalg", "polyfactor", "lattice", "discforms", "gluing", "involution", "nsfamilies",
     "elliptic", "verify"),
)


@dataclass
class CommandResult:
    status: str
    payload: object
    diagnostics: list[str]
    exit_code: int
    error_code: str | None = None
    json_mode: bool = False


def _jsonable(x):
    if isinstance(x, Fraction):
        return decimal(x) if x.denominator != 1 else _jsonable(x.numerator)
    if isinstance(x, int) and x.bit_length() > 3 * sys.get_int_max_str_digits():
        decimal(x)  # json prints ints with str(); below 3n bits (2^(3n) < 10^n) they always fit
        return x
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise JsonInputError(f"malformed JSON: {exc}") from exc


def _read_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes not UTF-8
        raise JsonInputError(f"cannot read {path}: {exc}") from exc
    return _parse_json(text)


def _load_lattice(ns) -> lattice.Lattice:
    if getattr(ns, "file", None):
        return lattice.Lattice.from_json(_read_json_file(ns.file))
    if getattr(ns, "std", None):
        return lattice.standard_lattice(ns.std, ns.twist, ns.param)
    raise JsonInputError("supply either --std KIND or --file PATH")


# -- handlers ----------------------------------------------------------------


def _cmd_lattice_info(ns):
    lat = _load_lattice(ns)
    payload = {
        "rank": lat.rank,
        "det": lat.determinant,
        "even": lat.is_even,
        "signature": list(lat.signature.as_pair()),
    }
    return payload, []


def _cmd_lattice_show(ns):
    return _load_lattice(ns).to_json(), []


#: coordinates a ``--vectors`` listing may print: Gamma16(-1) at norm -4 lists
#: 990,720 in ~1 s, and E8(-1) at norm -20, 2,177,280 of them, took 2.3 s and 89 MB
_LISTING_BOUND = 2 ** 20


def _cmd_lattice_roots(ns):
    lat = _load_lattice(ns)
    vectors = lattice.enumerate_vectors_of_norm(lat, ns.norm)
    payload = {"norm": ns.norm, "count": len(vectors)}
    if ns.vectors:
        if len(vectors) * lat.rank > _LISTING_BOUND:
            raise UnsupportedError(
                f"{len(vectors)} vectors of norm {ns.norm} in a rank-{lat.rank} lattice: listing them "
                f"prints {len(vectors) * lat.rank} coordinates, past the bound {_LISTING_BOUND}"
            )
        payload["vectors"] = [list(v) for v in vectors]
    return payload, []


def _cmd_disc(ns):
    lat = _load_lattice(ns)
    form = discforms.discriminant_form(lat)
    hist = {str(k): v for k, v in sorted(form.q_histogram().items())}
    payload = {
        "invariant_factors": list(form.invariant_factors),
        "elements": form.order,
        "q_histogram": hist,
    }
    return payload, []


def _cmd_glue(ns):
    base = lattice.Lattice.from_json(_read_json_file(ns.base))
    raw = _read_json_file(ns.vectors)
    vec_list = raw["vectors"] if isinstance(raw, dict) and "vectors" in raw else raw
    if not isinstance(vec_list, list):
        raise JsonInputError('vectors file must hold a list or {"vectors": [...]}')
    data = gluing.GlueData.of(base, vec_list)
    over = gluing.glue(data)
    payload = {
        "lattice": over.lattice.to_json(),
        "verification": gluing.verification_block(over),
        "inclusion": [list(r) for r in over.inclusion],
        "basis_in_base": [[decimal(x) for x in row] for row in over.basis_in_base],
    }
    return payload, []


def _cmd_k3_maps(ns):
    report = involution.QuotientCohomology().adjunction_report()
    return _jsonable(report), []


def _cmd_k3_push(ns):
    return {"vector": involution.QuotientCohomology().push(_parse_json(ns.vector))}, []


def _cmd_k3_pull(ns):
    return {"vector": involution.QuotientCohomology().pull(_parse_json(ns.vector))}, []


def _cmd_ns_classify(ns):
    families = nsfamilies.classify_ns(ns.L2)
    payload = []
    for fam in families:
        payload.append(
            {
                "two_d": fam.two_d,
                "variant": fam.variant,
                "det": fam.lattice.determinant,
                "even": fam.lattice.is_even,
                "signature": list(fam.lattice.signature.as_pair()),
                "glue_vector": list(fam.glue_vector) if fam.glue_vector else None,
                "lattice": fam.lattice.to_json(),
            }
        )
    return payload, []


def _cmd_ns_moduli(ns):
    return {"example": ns.example, "dimension": nsfamilies.moduli_dimension(ns.example)}, []


def _cmd_ns_obstruction(ns):
    return _jsonable(nsfamilies.det_square_class_obstruction(ns.rankT)), []


def _fibration_from_args(ns) -> elliptic.WeierstrassFibration:
    poly = elliptic.RatPoly.from_string
    return elliptic.WeierstrassFibration(poly(ns.a), poly(ns.b))


def _cmd_ell_fibers(ns):
    report = elliptic.fiber_configuration(_fibration_from_args(ns))
    return report.to_json(), []


def _cmd_ell_quotient(ns):
    quot = elliptic.two_isogeny_quotient(_fibration_from_args(ns))
    report = elliptic.fiber_configuration(quot)
    return {
        "a": quot.a.coeff_strings(),
        "b": quot.b.coeff_strings(),
        "fibers": report.to_json(),
    }, []


def _cmd_ell_shioda_tate(ns):
    rank, disc = elliptic.shioda_tate(elliptic.parse_fiber_list(ns.fibers), ns.torsion)
    return {"picard_rank": rank, "ns_discriminant": decimal(disc)}, []


def _cmd_verify_paper(ns):
    results = verify.run_all(ns.seed)
    lines = []
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        lines.append(f"[{mark}] criterion {res.number}: {res.title}")
        if not res.passed:
            lines.append(f"       {res.detail}")
    all_passed = all(r.passed for r in results)
    payload = {
        "all_passed": all_passed,
        "results": [
            {"number": r.number, "title": r.title, "passed": r.passed} for r in results
        ],
        "seed": ns.seed,
    }
    return payload, lines


# -- parser ------------------------------------------------------------------


def _add_lattice_source(parser):
    kinds = lattice._STANDARD_CONSTRUCTORS
    parser.add_argument("--std", choices=kinds)
    parser.add_argument("--twist", type=int, default=1)
    takes = ", ".join(f"{param} for {kind}" for kind, (_, param) in kinds.items() if param)
    parser.add_argument("--param", type=int, default=None, help=takes)
    parser.add_argument("--file", help="lattice JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3lat",
        description="Exact lattice, discriminant-form, gluing, and elliptic-fibration computations",
    )
    parser.add_argument("--json", action="store_true", help="machine envelope output")
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="lattice constructors and invariants")
    lsub = lat.add_subparsers(dest="subcommand", required=True)
    info = lsub.add_parser("info", help="rank/det/parity/signature")
    _add_lattice_source(info)
    info.set_defaults(handler=_cmd_lattice_info)
    show = lsub.add_parser("show", help="emit the lattice JSON")
    _add_lattice_source(show)
    show.set_defaults(handler=_cmd_lattice_show)
    roots = lsub.add_parser("roots", help="enumerate vectors of a given norm")
    _add_lattice_source(roots)
    roots.add_argument("--norm", type=int, required=True)
    roots.add_argument("--vectors", action="store_true", help="list the vectors too")
    roots.set_defaults(handler=_cmd_lattice_roots)

    disc = sub.add_parser("disc", help="discriminant group and q histogram")
    _add_lattice_source(disc)
    disc.set_defaults(handler=_cmd_disc)

    glue_p = sub.add_parser("glue", help="even overlattice from glue vectors")
    glue_p.add_argument("--base", required=True, help="base lattice JSON file")
    glue_p.add_argument("--vectors", required=True, help="glue vectors JSON file")
    glue_p.set_defaults(handler=_cmd_glue)

    k3 = sub.add_parser("k3", help="involution and quotient transfer maps")
    ksub = k3.add_subparsers(dest="subcommand", required=True)
    maps = ksub.add_parser("maps", help="verify the transfer identities")
    maps.set_defaults(handler=_cmd_k3_maps)
    push = ksub.add_parser("push", help="push a 30-coordinate vector")
    push.add_argument("--vector", required=True, help="JSON list of 30 integers")
    push.set_defaults(handler=_cmd_k3_push)
    pull = ksub.add_parser("pull", help="pull a 22-coordinate vector")
    pull.add_argument("--vector", required=True, help="JSON list of 22 exact rationals")
    pull.set_defaults(handler=_cmd_k3_pull)

    ns_p = sub.add_parser("ns", help="rank-9 families and numerical invariants")
    nsub = ns_p.add_subparsers(dest="subcommand", required=True)
    classify = nsub.add_parser("classify", help="families with L^2 = 2d")
    classify.add_argument("--L2", type=int, required=True)
    classify.set_defaults(handler=_cmd_ns_classify)
    moduli = nsub.add_parser("moduli", help="moduli dimension of a worked example")
    moduli.add_argument("--example", required=True, choices=lattice._MODULI_EXAMPLES)
    moduli.set_defaults(handler=_cmd_ns_moduli)
    obstruction = nsub.add_parser("obstruction", help="determinant square-class report")
    obstruction.add_argument("--rankT", type=int, required=True)
    obstruction.set_defaults(handler=_cmd_ns_obstruction)

    ell = sub.add_parser("ell", help="Weierstrass fibrations with 2-torsion")
    esub = ell.add_subparsers(dest="subcommand", required=True)
    fibers = esub.add_parser("fibers", help="Kodaira I_n configuration")
    fibers.add_argument("--a", required=True, help="coefficients of a(t), low first")
    fibers.add_argument("--b", required=True, help="coefficients of b(t), low first")
    fibers.set_defaults(handler=_cmd_ell_fibers)
    quot = esub.add_parser("quotient", help="2-isogeny quotient model and its fibers")
    quot.add_argument("--a", required=True)
    quot.add_argument("--b", required=True)
    quot.set_defaults(handler=_cmd_ell_quotient)
    st = esub.add_parser("shioda-tate", help="Picard rank and NS discriminant")
    st.add_argument("--fibers", required=True, help='e.g. "I2:8,I1:8"')
    st.add_argument("--torsion", type=int, required=True)
    st.set_defaults(handler=_cmd_ell_shioda_tate)

    vp = sub.add_parser("verify-paper", help="run the full acceptance suite")
    vp.add_argument("--seed", type=int, default=lattice.DEFAULT_SEED)
    vp.set_defaults(handler=_cmd_verify_paper)
    return parser


def run(argv) -> CommandResult:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        status = "ok" if code == 0 else "error"
        return CommandResult(status, None, [], code, "usage" if code else None)
    json_mode = bool(getattr(ns, "json", False))
    try:
        payload, diagnostics = ns.handler(ns)
        payload = _jsonable(payload)
    except JsonInputError as exc:
        return CommandResult("error", None, [str(exc)], 3, exc.code, json_mode)
    except K3LatError as exc:
        return CommandResult("error", None, [str(exc)], 1, exc.code, json_mode)
    exit_code = 0
    if getattr(ns, "command", "") == "verify-paper" and not payload["all_passed"]:
        exit_code = 1
    return CommandResult("ok", payload, diagnostics, exit_code, None, json_mode)


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.json_mode:
        print(
            json.dumps(
                {
                    "status": result.status,
                    "payload": result.payload,
                    "diagnostics": result.diagnostics,
                    "error_code": result.error_code,
                },
                sort_keys=True,
            )
        )
        return result.exit_code
    if result.status == "error":
        print(
            json.dumps({"status": "error", "code": result.error_code,
                        "message": "; ".join(result.diagnostics)}),
            file=sys.stderr,
        )
        return result.exit_code
    for line in result.diagnostics:
        print(line)
    if result.payload is not None:
        print(json.dumps(result.payload, indent=2, sort_keys=True))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
