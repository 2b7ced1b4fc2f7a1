"""Command-line front end.

Six subcommands: ``demo`` (named end-to-end counterexamples), ``sweep``
(entropy scatter), ``surface`` (continuity surfaces, revised or
maximum-entropy rule), ``maxent``, ``fixedpoints``, and ``kraus`` (solver
invocations on a gallery circuit).

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure (a required limit does not exist, or linear algebra broke down).

Flags can come from a plain-text config file (``--config FILE``), one
``key = value`` per line, ``#`` comments allowed; keys are the long flag
names with either dashes or underscores. Command-line flags override the
file. Output lands in --out-dir, else $DCTC_OUT_DIR, else the working
directory; file names are fixed per command so reruns overwrite.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .channels import choi_matrix, kraus_completeness_defect, kraus_from_choi
from .engines import (ConvergenceError, consistency_residual, fixed_subspace,
                      limit_superoperator, ralph_iterate)
from .experiments import (Fig2Config, Fig3Config, RunRecord, RunRow,
                          _bistable_section, _cycle_section, _kraus_section,
                          _mat_json, _reference_comparison, _write_json,
                          continuity_metric, derive_seed, deutsch_rule_grid,
                          run_fig2, run_fig3, write_csv, write_manifest)
from .gallery import gallery
from .maxent import max_entropy_fixed_state
from .qmat import _coords, maximally_mixed, von_neumann_entropy

DEMO_NAMES = ("u1-cycle", "u2-bistable", "kraus-refutation")
_JOBS_HELP = ("thread count, to check that the output does not depend on it; "
              "not a speed option")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors raise instead of exiting with code 2."""

    def error(self, message):
        raise _UsageError(message)


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def build_parser():
    parser = _Parser(prog="dctc",
                     description="closed-timelike-curve circuit simulator")
    subs = parser.add_subparsers(dest="command", metavar="command")
    sub_map = {}

    def add(name, help_text):
        sp = subs.add_parser(name, help=help_text, prog=f"dctc {name}")
        sp.add_argument("--out-dir", default=None,
                        help="artifact directory (default: $DCTC_OUT_DIR or .)")
        sp.add_argument("--config", default=None,
                        help="key = value config file; flags override it")
        sub_map[name] = sp
        return sp

    sp = add("demo", "run a named end-to-end counterexample")
    sp.add_argument("name", choices=DEMO_NAMES)
    sp.set_defaults(func=_cmd_demo)

    sp = add("sweep", "entropy scatter over random initial CV states")
    sp.add_argument("--system", choices=("u1", "u2"), default="u2")
    sp.add_argument("--family", choices=("mixed", "pure"), default="mixed")
    sp.add_argument("--s-values", type=_float_list, default=None,
                    help="comma-separated CR mixing parameters (default 0..1 step 0.1)")
    sp.add_argument("--p-values", type=_float_list, default=(0.0, 0.01),
                    help="comma-separated noise strengths (default 0,0.01)")
    sp.add_argument("--n-random", type=int, default=None,
                    help="initial states per s (default 100; 1000 at full scale)")
    sp.add_argument("--max-iter", type=int, default=None,
                    help="iteration cap (default 2000; 10000 at full scale)")
    sp.add_argument("--full-scale", action="store_true",
                    help="published scale: 1000 states, 10000 iterations")
    sp.add_argument("--seed", type=int, default=42, help="master seed")
    sp.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    sp.set_defaults(func=_cmd_sweep)

    sp = add("surface", "consistent-state entropy of u3 over a CR population grid")
    sp.add_argument("--family", choices=("mixed", "pure"), default="pure")
    sp.add_argument("--rule", choices=("revised", "deutsch"), default="revised",
                    help="revised: closed form at --p; deutsch: maximum-entropy "
                         "selection at p = 0")
    sp.add_argument("--p", type=float, default=0.1, help="noise strength")
    sp.add_argument("--grid-step", type=float, default=0.1,
                    help="population grid step over [0, 1]")
    sp.add_argument("--seed", type=int, default=42, help="master seed")
    sp.set_defaults(func=_cmd_surface)

    sp = add("maxent", "maximum-entropy consistent state of a circuit")
    sp.add_argument("--system", choices=("u1", "u2", "u3"), default="u2")
    sp.set_defaults(func=_cmd_maxent)

    sp = add("fixedpoints", "fixed-operator subspace of a circuit")
    sp.add_argument("--system", choices=("u1", "u2", "u3"), default="u2")
    sp.set_defaults(func=_cmd_fixedpoints)

    sp = add("kraus", "Kraus form of a circuit's iterated-map limit")
    sp.add_argument("--system", choices=("u1", "u2", "u3"), default="u2")
    sp.set_defaults(func=_cmd_kraus)

    return parser, sub_map


def _expand_config_file(argv, sub_map):
    """Insert flags from a --config file after the subcommand token.

    File flags come first so explicit command-line flags override them.
    Raises _UsageError naming the offending line for unknown keys or
    malformed lines.
    """
    if not argv or argv[0] not in sub_map:
        return argv
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    sp = sub_map[argv[0]]
    known = {}
    for action in sp._actions:
        for opt in action.option_strings:
            known[opt] = action
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    file_args = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        action = known.get(flag)
        if action is None or flag in ("--config",):
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            low = value.lower()
            if low in ("true", "yes", "1", "on"):
                file_args.append(flag)
            elif low not in ("false", "no", "0", "off"):
                raise _UsageError(f"{path}:{lineno}: {key!r} wants a boolean, "
                                  f"got {value!r}")
        else:
            file_args.extend([flag, value])
    return [argv[0]] + file_args + argv[1:]


def _resolve_out_dir(args) -> str:
    out = args.out_dir or os.environ.get("DCTC_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    probe = os.path.join(out, ".dctc-write-probe")
    with open(probe, "w") as fh:
        fh.write("")
    os.remove(probe)
    return out


def _write_artifact(out, record: RunRecord, doc) -> None:
    """Write ``<experiment>.json`` and the record's manifest."""
    _write_json(os.path.join(out, f"{record.experiment}.json"), doc)
    write_manifest(record, os.path.join(out, f"{record.experiment}_manifest.json"))


def _mat_lines(m, digits=6) -> str:
    a = np.asarray(m)
    if np.abs(np.imag(a)).max() < 1e-12:
        a = np.real(a)
    return np.array2string(np.round(a, digits) + 0.0, suppress_small=True)


def _cmd_demo(args) -> int:
    out = _resolve_out_dir(args)
    t0 = time.monotonic()
    g = gallery()
    rows = []

    def row(family, p, status, entropy, resid, steps):
        rows.append(RunRow(f"demo:{args.name}", family, None, None, None, p,
                           len(rows), 0, status, entropy, resid, steps))

    if args.name == "u1-cycle":
        cyc = ralph_iterate(g["u1"].system(), maximally_mixed(4))
        sec = _cycle_section(cyc)
        print(f"period-{sec['period']} cycle detected after {sec['steps']} steps")
        for k, m in enumerate(cyc.cycle_states or ()):
            s_bits = von_neumann_entropy(m)
            print(f"cycle state {k + 1}: diag "
                  f"{np.round(np.real(np.diag(m)), 6).tolist()}, "
                  f"entropy {s_bits:.6f} bits")
            row("", 0.0, "cycle-state", s_bits, 0.0, sec["steps"])
        resid = consistency_residual(g["u1"].system(), cyc.state)
        print(f"orbit average: diag {np.round(np.real(np.diag(cyc.state)), 6).tolist()}, "
              f"entropy {sec['orbit_average_entropy_bits']:.6f} bits, "
              f"consistency residual {resid:.3e}")
        row("", 0.0, "orbit-average", sec["orbit_average_entropy_bits"], resid,
            sec["steps"])
    elif args.name == "u2-bistable":
        sec = _bistable_section(g)
        print("initial state      p      status     entropy_bits")
        for r in sec["rows"]:
            print(f"{r['tau0']:<18} {r['p']:<6g} {r['status']:<10} "
                  f"{r['entropy_bits']:.6f}")
            row(r["tau0"], r["p"], r["status"], r["entropy_bits"], r["residual"],
                r["steps"])
        print("the p = 0 outcome depends on the initial state; "
              "the p = 0.01 outcome does not")
    else:
        sec = _kraus_section(g)
        print(f"iterated-map limit extracted as {sec['operator_count']} "
              f"Kraus operators")
        print(f"completeness defect: {sec['completeness_defect']:.3e}")
        print(f"channel distance to the reference operator set: "
              f"{sec['channel_distance_to_reference']:.3e}")
        print(f"commutator residual at the maximally mixed state: "
              f"{sec['commutator_residual_mm']:.6f} (sqrt(2)/4 = "
              f"{np.sqrt(2) / 4:.6f}); commuting Kraus operators would give 0")
        row("", 0.0, "completeness", None, sec["completeness_defect"], 0)
        row("", 0.0, "reference-commutator", None, sec["commutator_residual_mm"], 0)
    safe = args.name.replace("-", "_")
    write_csv(rows, os.path.join(out, f"demo_{safe}.csv"))
    _write_artifact(out, RunRecord(f"demo_{safe}", {"name": args.name}, tuple(rows),
                                   time.monotonic() - t0), sec)
    return 0


def _cmd_sweep(args) -> int:
    n_random = args.n_random if args.n_random is not None else \
        (1000 if args.full_scale else 100)
    max_iter = args.max_iter if args.max_iter is not None else \
        (10000 if args.full_scale else 2000)
    kwargs = dict(family=args.family, n_random=n_random, max_iter=max_iter,
                  p_values=args.p_values, master_seed=args.seed,
                  system=args.system)
    if args.s_values is not None:
        kwargs["s_values"] = args.s_values
    cfg = Fig2Config(**kwargs)
    out = _resolve_out_dir(args)
    rec = run_fig2(cfg, jobs=max(1, args.jobs))
    write_csv(rec.rows, os.path.join(out, "sweep.csv"))
    write_manifest(rec, os.path.join(out, "sweep_manifest.json"))
    n_cyc = sum(r.status == "cycle" for r in rec.rows)
    n_exh = sum(r.status == "exhausted" for r in rec.rows)
    print(f"sweep: {len(rec.rows)} rows ({n_cyc} cycle, {n_exh} exhausted) "
          f"in {rec.wall_time_s:.1f} s -> {os.path.join(out, 'sweep.csv')}")
    return 0


def _grid_values(step: float) -> tuple[float, ...]:
    if not 0.0 < step <= 1.0:
        raise ValueError(f"grid step {step} outside (0, 1]")
    return tuple(round(float(v), 10)
                 for v in np.arange(0.0, 1.0 + step / 2.0, step))


def _cmd_surface(args) -> int:
    eps_values = _grid_values(args.grid_step)
    out = _resolve_out_dir(args)
    if args.rule == "revised":
        cfg = Fig3Config(family=args.family, eps_values=eps_values, p=args.p,
                         master_seed=args.seed)
        rec = run_fig3(cfg)
        budget = rec.info.get("continuity_budget")
        verdict = ""
        if budget is not None:
            ok = rec.info["max_jump"] <= budget
            verdict = f" (budget {budget:g}: {'ok' if ok else 'EXCEEDED'})"
        print(f"surface [{args.rule}, {args.family}, p={args.p:g}]: "
              f"max adjacent jump {rec.info['max_jump']:.6f}{verdict}")
    else:
        t0 = time.monotonic()
        grid = deutsch_rule_grid(eps_values, family=args.family)
        rows = []
        n = len(eps_values)
        for task in range(n * n):
            i, j = divmod(task, n)
            rows.append(RunRow("deutsch-rule", args.family, None,
                               eps_values[i], eps_values[j], 0.0, task,
                               derive_seed(args.seed, task), "max-entropy",
                               float(grid[i, j]), None, 0))
        jump, cells = continuity_metric(grid)
        rec = RunRecord("deutsch-rule",
                        {"family": args.family, "eps_values": list(eps_values),
                         "master_seed": args.seed},
                        tuple(rows), time.monotonic() - t0, grid=grid,
                        info={"max_jump": jump,
                              "jump_cells": [list(cells[0]), list(cells[1])]})
        print(f"surface [deutsch, {args.family}]: max adjacent jump "
              f"{jump:.6f} at cells {cells[0]} -> {cells[1]}")
    write_csv(rec.rows, os.path.join(out, "surface.csv"))
    write_manifest(rec, os.path.join(out, "surface_manifest.json"))
    print(f"wrote {os.path.join(out, 'surface.csv')} ({len(rec.rows)} rows)")
    return 0


def _cmd_maxent(args) -> int:
    out = _resolve_out_dir(args)
    t0 = time.monotonic()
    sys_ = gallery()[args.system].system()
    res = max_entropy_fixed_state(sys_)
    print(f"maximum-entropy consistent state of {args.system}:")
    print(_mat_lines(res.state))
    print(f"entropy: {res.entropy_bits:.6f} bits "
          f"({res.iterations} ascent iterations, "
          f"projected-gradient norm {res.kkt_residual:.3e})")
    _write_artifact(out, RunRecord("maxent", {"system": args.system}, (),
                                   time.monotonic() - t0),
                    {"system": args.system,
                     "state": _mat_json(res.state),
                     "entropy_bits": res.entropy_bits,
                     "iterations": res.iterations,
                     "kkt_residual": res.kkt_residual,
                     "converged": res.converged})
    return 0


def _rref(mat, tol=1e-9):
    a = np.array(mat, dtype=float)
    lead = 0
    for r in range(a.shape[0]):
        if lead >= a.shape[1]:
            break
        piv = None
        for c in range(lead, a.shape[1]):
            rows = np.abs(a[r:, c])
            if rows.max() > tol:
                piv = r + int(np.argmax(rows))
                lead = c
                break
        if piv is None:
            break
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] / a[r, lead]
        for rr in range(a.shape[0]):
            if rr != r and abs(a[rr, lead]) > tol:
                a[rr] = a[rr] - a[rr, lead] * a[r]
        lead += 1
    return a


def _diag_family_description(span) -> str:
    """Symbolic form of the diagonal slice of the fixed span, whose
    orthonormal operators are ``span``, as in ``diag(a, 0, b, b)``; an
    empty slice is reported in words."""
    # residual of each E_jj (the coordinate vector e_j) after projection onto
    # the orthonormal span; combinations x with resid @ x = 0 lie in it
    rows, d = _coords(span), len(span[0])
    resid = np.eye(d * d)[:, :d] - rows.T @ rows[:, :d]
    _, sv, vt = np.linalg.svd(resid)
    null = vt[np.sum(sv > 1e-9):]
    if null.size == 0:
        return "no diagonal operators in the fixed span"
    rr = _rref(null)
    rr = rr[np.abs(rr).max(axis=1) > 1e-9]
    letters = "abcdefgh"
    entries = []
    for j in range(d):
        terms = []
        for k in range(rr.shape[0]):
            c = rr[k, j]
            if abs(c) < 1e-9:
                continue
            if abs(c - 1.0) < 1e-9:
                terms.append(letters[k])
            elif abs(c + 1.0) < 1e-9:
                terms.append(f"-{letters[k]}")
            else:
                terms.append(f"{c:.3g}{letters[k]}")
        entries.append("0" if not terms else
                       "+".join(terms).replace("+-", "-"))
    return "diag(" + ", ".join(entries) + ")"


def _cmd_fixedpoints(args) -> int:
    out = _resolve_out_dir(args)
    t0 = time.monotonic()
    sysdef = gallery()[args.system]
    basis = fixed_subspace(sysdef.system())
    desc = _diag_family_description(basis)
    print(f"fixed-operator subspace of {args.system}: dimension {len(basis)}")
    print(f"diagonal slice: {desc}")
    for k, b in enumerate(basis):
        print(f"basis element {k + 1}:")
        print(_mat_lines(b))
    _write_artifact(out, RunRecord("fixedpoints", {"system": args.system}, (),
                                   time.monotonic() - t0),
                    {"system": args.system, "dimension": len(basis),
                     "diagonal_slice": desc,
                     "basis": [_mat_json(b) for b in basis]})
    return 0


def _cmd_kraus(args) -> int:
    out = _resolve_out_dir(args)
    t0 = time.monotonic()
    sysdef = gallery()[args.system]
    lim = limit_superoperator(sysdef.system())
    ops = kraus_from_choi(choi_matrix(lim))
    print(f"iterated-map limit of {args.system}: {len(ops)} Kraus operators, "
          f"completeness defect {kraus_completeness_defect(ops):.3e}")
    for k, e in enumerate(ops):
        print(f"operator {k + 1}:")
        print(_mat_lines(e))
    doc = {"system": args.system, "operator_count": len(ops),
           "completeness_defect": kraus_completeness_defect(ops),
           "operators": [_mat_json(e) for e in ops]}
    if args.system == "u2":
        (doc["channel_distance_to_reference"],
         doc["reference_commutator_residual"]) = _reference_comparison(lim)
        print(f"channel distance to the reference operator set: "
              f"{doc['channel_distance_to_reference']:.3e}")
        print(f"reference-set commutator residual at the maximally mixed "
              f"state: {doc['reference_commutator_residual']:.6f}")
    _write_artifact(out, RunRecord("kraus", {"system": args.system}, (),
                                   time.monotonic() - t0), doc)
    return 0


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, sub_map = build_parser()
    try:
        argv = _expand_config_file(argv, sub_map)
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("a command is required")
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
