"""Command-line surface: simulate-cosines, search, verify, generate.

Exit codes: 0 success (verify: Pass), 1 verification failure, 2 I/O error,
3 invalid configuration or arguments, 4 corrupted checkpoint.  The only
environment variable honored is KISSGRAM_THREADS; every other knob lives in
the config file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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
    certificate_text,
    read_gram_file,
    read_vector_file,
    write_certificate,
    write_cosine_report,
    write_gram_file,
    write_vector_file,
)
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
        value = int(raw)
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
    if args.seed_file:
        doc = read_vector_file(args.seed_file)
        if doc.dim != args.dim:
            raise ConfigError(f"seed file dimension {doc.dim} disagrees with --dim {args.dim}")
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
    from .game import default_policy, train_loop
    from .runconfig import echo_text, load_run_config

    run = load_run_config(args.config)
    echo = echo_text(run)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "run.log"
    ckpt_path = out_dir / "checkpoint.bin"

    tree = policy = best = None
    baseline = 0.0
    rewards: list[int] = []
    rng = np.random.default_rng(run.game.rng_seed)
    if args.resume:
        ckpt = load_checkpoint(args.resume)
        if ckpt.config_echo != echo:
            raise ConfigError(f"{args.resume}: checkpoint was produced by a different "
                              f"configuration")
        expected = default_policy(run.game).weights.shape
        if ckpt.policy.weights.shape != expected:
            raise CheckpointError(f"{args.resume}: corrector weights have shape "
                                  f"{ckpt.policy.weights.shape}, the configuration needs "
                                  f"{expected}")
        tree, policy, best = ckpt.tree, ckpt.policy, ckpt.best
        baseline, rewards = ckpt.baseline, ckpt.rewards
        rng.bit_generator.state = ckpt.rng_state

    log = open(log_path, "a" if args.resume else "w", encoding="utf-8")
    with log:
        if not args.resume:
            log.write("# effective configuration\n")
            log.write(echo)
            log.write("# episodes\n")
        remaining = run.episodes - len(rewards)
        if remaining <= 0:
            print(f"nothing to do: checkpoint already covers {len(rewards)} episodes")
            remaining = 0

        def on_episode(ep_index, state):
            log.write(f"episode {ep_index}: reward {state.rewards[-1]} "
                      f"best {state.best.team_reward}\n")
            if ep_index % run.game.checkpoint_every == 0 or ep_index == run.episodes:
                save_checkpoint(ckpt_path, config_echo=echo, rng=rng, tree=state.tree,
                                policy=state.policy, baseline=state.baseline,
                                rewards=state.rewards, best=state.best)

        result = None
        if remaining:
            result = train_loop(run.game, remaining, tree=tree, policy=policy, rng=rng,
                                baseline=baseline, best=best, rewards=rewards,
                                on_episode=on_episode)
        if result is None:
            if best is None:
                raise ConfigError("checkpoint holds no result and no episodes remain")
            final_best, final_rewards = best, rewards
        else:
            final_best, final_rewards = result.best, result.rewards
        log.write(f"final best reward {final_best.team_reward} "
                  f"over {len(final_rewards)} episodes\n")

    state = final_best.final_state
    write_gram_file(out_dir / "best.gram", state)
    from .gram import reconstruct_vectors

    write_vector_file(out_dir / "best.vectors", reconstruct_vectors(state))
    cert = verify_gram(state)
    write_certificate(out_dir / "best.cert", cert)
    print(f"best team reward: {final_best.team_reward}")
    print(f"certificate: {cert.verdict}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK if cert.passed else EXIT_FAIL


def _cmd_verify(args) -> int:
    try:
        with open(args.path, "rb") as fh:
            head = fh.readline()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if head.startswith(b"kiss-gram"):
        state = read_gram_file(args.path)
        mode = args.mode or state.mode
        if mode == "rational" and state.exact is None:
            raise ConfigError(f"{args.path}: float gram file cannot be verified rationally")
        cert = verify_gram(state, mode=mode)
    elif head.startswith(b"kiss-vectors"):
        doc = read_vector_file(args.path)
        mode = args.mode or doc.mode
        cert = verify_vectors(doc.vectors, doc.dim, mode=mode, exact=doc.exact)
    else:
        raise ParseError(f"{args.path}: not a kiss-vectors or kiss-gram file")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kissgram",
        description="Search engine and exact verifier for kissing-number configurations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate-cosines",
                         help="discover the discrete cosine set of a dimension")
    sim.add_argument("--dim", type=int, required=True)
    sim.add_argument("--seed-file", default=None,
                     help="vector file with the initial centers (default: a single axis)")
    sim.add_argument("--budget", type=int, required=True, help="number of rollouts")
    sim.add_argument("--out", required=True, help="cosine report output path")
    sim.add_argument("--rng-seed", type=int, default=0)
    sim.add_argument("--ucb-c", type=float, default=float(np.sqrt(2.0)))
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
    gen.add_argument("--name", required=True,
                     help="CrossPolytope(n), Simplex(n), Hexagon, Icosahedron, "
                          "D4Roots or E8Roots")
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
