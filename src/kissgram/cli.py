"""Command-line surface: simulate-cosines, search, verify, generate.

Exit codes: 0 success (verify: Pass), 1 verification failure, 2 I/O error,
3 invalid configuration or arguments (argparse's usage errors included),
4 corrupted checkpoint.  Numbers in arguments and the environment follow the
literal rules of ``rational``, as in files.  The only environment variable
honored is KISSGRAM_THREADS; every other knob lives in the config file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    CheckpointError,
    ConfigError,
    CosineCapViolation,
    KissError,
    NonUnitVector,
    ParseError,
)
from .fileio import (
    VectorDoc,
    certificate_text,
    read_table_file,
    read_vector_file,
    write_certificate,
    write_cosine_report,
    write_gram_file,
    write_vector_file,
)
from .rational import float_literal, integer_literal
from .refconfigs import GENERATORS, config_from_vectors
from .verify import verify_gram, verify_vectors

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_CHECKPOINT = 4


def thread_count() -> int:
    """Worker count from the environment; execution is currently sequential."""
    raw = os.environ.get("KISSGRAM_THREADS", "1")
    try:
        value = integer_literal(raw)
    except ValueError as exc:
        raise ConfigError(f"KISSGRAM_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError("KISSGRAM_THREADS must be at least 1")
    return value


def _cmd_simulate(args) -> int:
    from .cosines import simulate_cosine_set

    if args.dim < 2:
        raise ConfigError("--dim must be at least 2")
    if args.budget < 1:
        raise ConfigError("--budget must be at least 1")
    if args.rng_seed < 0:
        raise ConfigError("--rng-seed must be non-negative")
    if not math.isfinite(args.ucb_c):
        raise ConfigError("--ucb-c must be finite")
    if args.seed_file:
        doc = read_vector_file(args.seed_file)
        if doc.dim != args.dim:
            raise ConfigError(f"seed file dimension {doc.dim} disagrees with --dim {args.dim}")
        # Refuse a zero row or a cosine above 1/2, as search does for a file seed.
        config_from_vectors(doc.vectors, doc.dim)
        seed = doc.vectors
    else:
        seed = np.eye(args.dim)[:1]
    rng = np.random.default_rng(args.rng_seed)
    result = simulate_cosine_set(args.dim, seed, args.budget, ucb_c=args.ucb_c, rng=rng)
    write_cosine_report(args.out, result, args.dim, args.budget)
    values = ", ".join(e.display() for e in result.cosine_set.entries)
    print(f"cosine set ({len(result.cosine_set.entries)} values): {values}")
    print(f"best configuration: {result.best_count} spheres; "
          f"converged: {'yes' if result.converged else 'no'}")
    print(f"report written to {args.out}")
    return EXIT_OK


def _cmd_search(args) -> int:
    from .game import load_seed, train_loop
    from .runconfig import load_run_config

    config = load_run_config(args.config)
    seed = load_seed(config.game)  # a bad seed is refused before any output
    echo = config.echo
    out_dir = config.out_path
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "run.log"
    ckpt_path = out_dir / "checkpoint.bin"

    run = None
    rng = np.random.default_rng(config.game.rng_seed)
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        if ckpt.config_echo != echo:
            raise ConfigError(f"{args.resume}: checkpoint was produced by a different "
                              f"configuration")
        run = ckpt.resume(config.game)
        rng.bit_generator.state = ckpt.rng_state

    log = open(log_path, "a" if args.resume else "w", encoding="utf-8")
    with log:
        if not args.resume:
            log.write("# effective configuration\n")
            log.write(echo)
            log.write("# episodes\n")
        done = 0 if run is None else len(run.rewards)
        remaining = config.game.episodes - done
        if remaining <= 0:
            print(f"nothing to do: checkpoint already covers {done} episodes")

        def on_episode(ep_index, run):
            log.write(f"episode {ep_index}: reward {run.rewards[-1]} "
                      f"best {run.best.team_reward}\n")
            if ep_index % config.game.checkpoint_every == 0 or ep_index == config.game.episodes:
                save_checkpoint(ckpt_path, config_echo=echo, rng=rng, run=run)

        if remaining > 0:
            run = train_loop(config.game, remaining, run=run, rng=rng, on_episode=on_episode,
                             seed=seed)
        del seed  # free the seed's Gram before the final certificate is built
        if run is None or run.best is None:
            raise ConfigError("checkpoint holds no result and no episodes remain")
        best = run.best
        log.write(f"final best reward {best.team_reward} over {len(run.rewards)} episodes\n")

    state = best.final_state
    write_gram_file(out_dir / "best.gram", state)
    from .gram import reconstruct_vectors

    write_vector_file(out_dir / "best.vectors", reconstruct_vectors(state))
    cert = verify_gram(state, tols=config.game.tolerances)
    write_certificate(out_dir / "best.cert", cert)
    print(f"best team reward: {best.team_reward}")
    print(f"certificate: {cert.verdict}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK if cert.passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    doc = read_table_file(args.path)
    kind = "vector" if isinstance(doc, VectorDoc) else "gram"
    # A Gram state and a vector document both carry their mode and exact entries.
    mode = args.mode or doc.mode
    if mode == "rational" and doc.exact is None:
        raise ConfigError(f"{args.path}: float {kind} file cannot be verified rationally")
    if kind == "gram":
        cert = verify_gram(doc, mode=mode)
    else:
        cert = verify_vectors(doc.vectors, doc.dim, mode=mode, exact=doc.exact)
    sys.stdout.write(certificate_text(cert))
    if args.out:
        write_certificate(args.out, cert)
    return EXIT_OK if cert.passed else EXIT_FAIL


def _cmd_generate(args) -> int:
    from .refconfigs import GeneratorId, generate

    try:
        gid = GeneratorId.parse(args.name)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc
    built = generate(gid)
    write_vector_file(args.out, built.vectors)
    if args.gram_out:
        write_gram_file(args.gram_out, built.gram)
    print(f"{built.label}: {built.vectors.shape[0]} vectors in dimension "
          f"{built.gram.dim} written to {args.out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 3, an invalid argument, not 2."""

    def exit(self, status=0, message=None):
        super().exit(status and EXIT_CONFIG, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kissgram",
        description="Search engine and exact verifier for kissing-number configurations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate-cosines",
                         help="discover the discrete cosine set of a dimension")
    sim.add_argument("--dim", type=integer_literal, required=True)
    sim.add_argument("--seed-file", default=None,
                     help="vector file with the initial centers (default: a single axis)")
    sim.add_argument("--budget", type=integer_literal, required=True, help="number of rollouts")
    sim.add_argument("--out", required=True, help="cosine report output path")
    sim.add_argument("--rng-seed", type=integer_literal, default=0)
    sim.add_argument("--ucb-c", type=float_literal, default=float(np.sqrt(2.0)))
    sim.set_defaults(func=_cmd_simulate)

    search = sub.add_parser("search", help="run the fill/correct game from a config file")
    search.add_argument("--config", required=True)
    search.add_argument("--resume", default=None, help="checkpoint to resume from")
    search.set_defaults(func=_cmd_search)

    verify = sub.add_parser("verify", help="certify a vector or gram file")
    verify.add_argument("--in", dest="path", required=True)
    verify.add_argument("--mode", choices=("float", "rational"), default=None)
    verify.add_argument("--out", default=None, help="also write the certificate here")
    verify.set_defaults(func=_cmd_verify)

    gen = sub.add_parser("generate", help="write a reference configuration")
    gen.add_argument("--name", required=True, help=", ".join(
        f"{name}(n)" if takes_n else name for name, (_, takes_n) in GENERATORS.items()))
    gen.add_argument("--out", required=True)
    gen.add_argument("--gram-out", default=None)
    gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        thread_count()
        return args.func(args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonUnitVector, CosineCapViolation) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
