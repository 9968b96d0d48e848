"""Command-line pipeline: graph construction, synthetic data, training,
prediction and weight inspection as subcommands of one executable.

Exit codes: 0 success, 1 usage error, 2 data/parse error or out of memory,
3 numerical failure (non-finite loss). All randomness flows through explicit
``--seed`` flags, so repeated invocations write byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import pickle
import sys
import warnings

import numpy as np

# each command imports the other package modules it runs in its body, so
# that it loads only those
from .errors import InvalidStateError, NumericalError, UnknownGeneError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# a command reads one of two inputs in a worker process only when both
# hold at least this many bytes. The worker saves at most the time of the
# shorter read, and costs its start, its result's trip back through a pipe
# and the parent's copy-on-write faults; on two cores build-graph broke
# even with score tables of 1-2 MB, and this leaves a margin
WORKER_MIN_BYTES = 4 << 20


class _UsageError(Exception):
    """A usage error; ``parser`` is the parser whose usage follows the
    message, or None for the running command's."""

    def __init__(self, message, parser=None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        # argparse's own words for a type=int flag, not this function's name
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orthomask", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # the flags both trainers take; _train_config turns them into a TrainConfig.
    # The choices and defaults spell training.OPTIMIZERS, OPT_ADAM and
    # FULL_BATCH, and --mode's netcore.MODES, so that the parser loads
    # neither module; tests/test_cli.py pins them to those constants
    trainer = argparse.ArgumentParser(add_help=False)
    trainer.add_argument("--expr", required=True)
    trainer.add_argument("--labels", required=True)
    trainer.add_argument("--lr", required=True, type=float)
    trainer.add_argument("--steps", required=True, type=int)
    trainer.add_argument("--seed", required=True, type=int)
    trainer.add_argument("--batch-size", type=int, default=2**31 - 1)
    trainer.add_argument("--optimizer", choices=["sgd", "adam"], default="adam")

    p = sub.add_parser("build-graph", help="reciprocal-best-hit graph from score tables")
    p.add_argument("--scores-tq", required=True, help="target-query score TSV")
    p.add_argument("--scores-qt", required=True, help="source-query score TSV")
    p.add_argument("--target-genes", required=True, help="target gene universe file")
    p.add_argument("--source-genes", required=True, help="source gene universe file")
    p.add_argument("--threshold", required=True, type=float)
    p.add_argument("--tie-tol", type=float, default=0.0)
    p.add_argument("--out", required=True, help="edge-list TSV to write")
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("synth", help="generate a seeded synthetic transfer problem")
    p.add_argument("--n-s", required=True, type=int, help="source gene count")
    p.add_argument("--n-t", required=True, type=int, help="target gene count")
    p.add_argument("--density", required=True, type=float)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--noise", required=True, type=float)
    p.add_argument("--hidden", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-base", parents=[trainer],
                       help="train the phenotype predictor on its own species")
    p.add_argument("--hidden", required=True, type=_positive_int)
    p.add_argument("--loss", required=True, choices=["mse", "ce"])
    p.add_argument("--out", required=True, help="model JSON to write (saved frozen)")
    p.set_defaults(func=_cmd_train_base)

    p = sub.add_parser("train-conversion", parents=[trainer],
                       help="fit the conversion layer against a frozen model")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True, help="edge-list TSV")
    p.add_argument("--target-genes", required=True, help="target gene universe file")
    p.add_argument("--source-genes", required=True, help="source gene universe file")
    p.add_argument("--mode", required=True, choices=["hard", "soft"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True, help="per-step loss TSV to write")
    p.set_defaults(func=_cmd_train_conversion)

    p = sub.add_parser("predict", help="write per-sample predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("inspect-weights", help="export the learned orthology weight table")
    p.add_argument("--model", required=True)
    p.add_argument("--target-gene", help="restrict to one target gene's contributors")
    p.add_argument("--top", type=_positive_int, help="contributors to keep (default 10; needs --target-gene)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_inspect_weights)

    p = sub.add_parser("eval", help="print mean loss of a model on labeled data")
    p.add_argument("--model", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_eval)

    # a usage error in a command's body is followed by that command's usage
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _config(cls, **fields):
    """``cls(**fields)``, a refused value raised as a usage error; each command calls it first."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise _UsageError(exc) from None


def _train_config(args, **fields):
    """The TrainConfig of the shared training flags and one trainer's own ``fields``."""
    from . import training

    return _config(
        training.TrainConfig,
        learning_rate=args.lr,
        steps=args.steps,
        batch_size=args.batch_size,
        optimizer=args.optimizer,
        seed=args.seed,
        **fields,
    )


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _beside(here, read, path, *args, beside):
    """``(here(), read(path, *args))``, with ``read`` run beside ``here``.

    Where ``os.fork`` exists, the process may run on two CPUs or more and
    the files ``path`` and ``beside`` both hold at least
    ``WORKER_MIN_BYTES``, a forked worker calls ``read`` while ``here``
    runs and sends back its result or its exception through a pipe,
    pickled. Otherwise, or if the pipe or the fork is refused, ``read``
    runs after ``here``. Either way errors come in the order of reading in
    turn: ``here``'s first. A worker is killed if ``here`` fails, and is
    reaped on every path.
    """
    try:
        small = min(os.stat(name).st_size for name in (path, beside)) < WORKER_MIN_BYTES
    except (OSError, ValueError):  # the read in turn reports it
        small = True
    if small or not hasattr(os, "fork") or _cpus() < 2:
        return here(), read(path, *args)
    try:
        fd, sent = os.pipe()
    except OSError:
        return here(), read(path, *args)
    try:
        with warnings.catch_warnings():
            # from Python 3.12 os.fork() warns in a process with other
            # threads, such as BLAS's pool; the worker only parses and
            # pickles, and calls no BLAS routine
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(sent)
        return here(), read(path, *args)
    if pid == 0:  # the worker, which ends here
        code = 1
        try:
            os.close(fd)
            try:
                outcome = (True, read(path, *args))
            except Exception as exc:
                outcome = (False, exc)
            with open(sent, "wb") as pipe:
                pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(sent)
    try:
        with open(fd, "rb") as pipe:
            value = here()
            data = pipe.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise OSError(f"the worker process reading {path} was killed by signal {-code}")
    if code:
        raise OSError(f"the worker process reading {path} exited with code {code}")
    done, result = pickle.loads(data)
    if not done:
        raise result
    return value, result


def _cmd_build_graph(args):
    from . import orthograph

    cfg = _config(orthograph.RbhConfig, threshold=args.threshold, tie_tolerance=args.tie_tol)
    # the gene lists first: each score table's IDs are read against them
    targets = orthograph.read_gene_list(args.target_genes)
    sources = orthograph.read_gene_list(args.source_genes)
    scores_tq, scores_qt = _beside(
        lambda: orthograph.read_score_table(args.scores_tq, targets, sources),
        orthograph.read_score_table, args.scores_qt, sources, targets, beside=args.scores_tq)
    graph = orthograph.build_rbh_graph(scores_tq, scores_qt, cfg, targets, sources)
    orthograph.graph_to_tsv(graph, args.out)
    print(f"wrote {graph.n_edges} edges to {args.out}")
    return EXIT_OK


def _cmd_synth(args):
    from . import synth

    spec = _config(
        synth.SyntheticSpec,
        n_sources=args.n_s,
        n_targets=args.n_t,
        orthology_density=args.density,
        num_samples=args.samples,
        noise_sigma=args.noise,
        hidden_dim=args.hidden,
        seed=args.seed,
    )
    bundle = synth.generate_synthetic(spec)
    synth.write_bundle(bundle, spec, args.out_dir)
    print(f"wrote bundle to {args.out_dir} (oracle_loss {bundle.oracle_loss!r})")
    return EXIT_OK


def _labelled(dataset, expr_path, labels_path, kind):
    """``dataset``, read from ``expr_path``, with its labels attached."""
    from . import dataio

    dataset, ignored = dataio.attach_labels(dataset, labels_path, kind)
    if ignored:
        print(
            f"orthomask: warning: {labels_path}: ignoring {ignored} label row(s) "
            f"whose sample is not in {expr_path}",
            file=sys.stderr,
        )
    return dataset


def _model_inputs(net, gene_ids, dataset, expr_path, labels_path=None):
    """``dataset``, read from ``expr_path``, as the network ``net`` reads it.

    With ``labels_path``, the samples are labelled: regression for a
    1-output head, class indices for a multi-logit one. With ``gene_ids``
    (a conversion layer's source genes), the columns are taken in that
    order; without, in file order, and there must be one per network input.
    Labelled samples must not be empty; gene problems are reported first.
    """
    from . import dataio

    if labels_path is not None:
        kind = dataio.KIND_REGRESSION if net.output_dim == 1 else dataio.KIND_CLASSIFICATION
        dataset = _labelled(dataset, expr_path, labels_path, kind)
    if gene_ids is None:
        if dataset.n_genes != net.input_dim:
            raise ValueError(
                f"{expr_path} has {dataset.n_genes} genes but model expects {net.input_dim} "
                "(model has no conversion layer; columns are used in file order)"
            )
    else:
        try:
            dataset, dropped = dataio.align_to_genes(dataset, gene_ids)
        except UnknownGeneError as exc:
            raise UnknownGeneError(f"{expr_path}: {exc}") from None
        if dropped:
            print(
                f"orthomask: warning: {expr_path}: dropping {dropped} gene(s) "
                "not among the conversion layer's source genes",
                file=sys.stderr,
            )
    if labels_path is not None and dataset.n_samples == 0:
        raise ValueError(f"no samples in {expr_path}")
    return dataset


def _scored_inputs(args, labels_path=None):
    """``eval``'s and ``predict``'s network, conversion layer and samples:
    ``--expr`` read here, first, and ``--model`` in a worker."""
    from . import dataio, modelio

    dataset, (net, conversion) = _beside(lambda: dataio.read_expression_tsv(args.expr),
                                         modelio.load_model, args.model, beside=args.expr)
    genes = None if conversion is None else conversion.mask.source_gene_ids
    return net, conversion, _model_inputs(net, genes, dataset, args.expr, labels_path)


def _cmd_train_base(args):
    from . import dataio, modelio, training
    from .netcore import ACT_IDENTITY, ACT_RELU, FeedforwardNetwork, Layer

    cfg = _train_config(args)
    kind = dataio.KIND_REGRESSION if args.loss == "mse" else dataio.KIND_CLASSIFICATION
    data = _labelled(dataio.read_expression_tsv(args.expr), args.expr, args.labels, kind)
    if data.n_samples == 0:
        raise ValueError(f"no samples in {args.expr}")

    if args.loss == "mse":
        out_dim = data.labels.shape[1]
    else:
        if data.labels.min() == data.labels.max():
            raise ValueError("classification needs at least 2 classes in the labels")
        out_dim = int(data.labels.max()) + 1

    rng = np.random.default_rng(args.seed)
    net = FeedforwardNetwork(
        [
            Layer(
                rng.standard_normal((args.hidden, data.n_genes)) / math.sqrt(data.n_genes),
                np.zeros(args.hidden),
                ACT_RELU,
            ),
            Layer(
                rng.standard_normal((out_dim, args.hidden)) / math.sqrt(args.hidden),
                np.zeros(out_dim),
                ACT_IDENTITY,
            ),
        ]
    )
    trained, report = training.train_base(net, data, cfg)
    modelio.save_model(FeedforwardNetwork(trained.layers, frozen=True), None, args.out)
    print(f"final training loss {report.losses[-1]!r}; eval {report.final_eval!r}")
    return EXIT_OK


def _cmd_train_conversion(args):
    from . import dataio, modelio, orthograph, training
    from .netcore import MODE_HARD

    cfg = _train_config(args, alpha=args.alpha, beta=args.beta)

    def model_and_graph():
        net, existing = modelio.load_model(args.model)
        if not net.frozen:
            raise InvalidStateError(f"model in {args.model} is not frozen")
        targets = orthograph.read_gene_list(args.target_genes)
        sources = orthograph.read_gene_list(args.source_genes)
        graph = orthograph.tsv_to_graph(args.graph, targets, sources)
        if net.input_dim != graph.n_targets:
            raise ValueError(
                f"model {args.model} expects {net.input_dim} target genes "
                f"but graph {args.graph} has {graph.n_targets}"
            )
        orphans = int(np.count_nonzero(graph.row_degrees() == 0))
        if orphans:
            # a soft layer's dense weights reach every target gene
            effect = ("the network reads 0 for them" if args.mode == MODE_HARD
                      else "only off-support weights feed them")
            print(
                f"orthomask: warning: {orphans} of {graph.n_targets} target genes have no ortholog "
                f"in {args.graph}; {effect}",
                file=sys.stderr,
            )
        return net, existing, graph

    # the model, gene lists and graph here, first; the expression in a worker
    (net, existing, graph), dataset = _beside(model_and_graph, dataio.read_expression_tsv,
                                              args.expr, beside=args.model)
    data = _model_inputs(net, graph.source_gene_ids, dataset, args.expr, args.labels)

    layer = training.initialize_conversion_layer(graph, args.mode, existing)
    trained, report = training.train_conversion(layer, net, data, cfg)
    modelio.save_model(net, trained, args.out)
    training.write_report_tsv(report, args.report)
    print(f"final training loss {report.losses[-1]!r}; eval {report.final_eval!r}")
    # a model no better than a constant prediction has learnt nothing from
    # the expression: soft training on uncentred expression gets there by
    # switching off every hidden unit of the frozen network
    constant = training.constant_loss(data.labels)
    if not report.final_eval < constant:
        print(
            f"orthomask: warning: eval {report.final_eval!r} is not below {constant!r}, "
            "the loss of the best constant prediction on these labels",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_predict(args):
    from . import dataio
    from .netcore import model_forward

    net, conversion, dataset = _scored_inputs(args)
    pred = model_forward(net, conversion, dataset.samples)
    if not np.all(np.isfinite(pred)):
        raise NumericalError("non-finite prediction")
    labels = pred if net.output_dim == 1 else pred.argmax(axis=1)
    dataio.write_labels_tsv(dataset.sample_ids, labels, args.out, ("sample_id", "prediction"))
    return EXIT_OK


def _cmd_inspect_weights(args):
    if args.target_gene is None and args.top is not None:
        raise _UsageError("--top needs --target-gene")
    from . import interpret, modelio

    conversion = modelio.load_model(args.model)[1]
    if conversion is None:
        raise ValueError(f"model in {args.model} has no conversion layer to inspect")
    if args.target_gene is None:
        interpret.export_weight_table(conversion, args.out)
        return EXIT_OK
    rows = interpret.contributor_rows(conversion, args.target_gene, 10 if args.top is None else args.top)
    interpret.write_weight_rows(rows, args.out)
    return EXIT_OK


def _cmd_eval(args):
    from . import training

    net, conversion, dataset = _scored_inputs(args, args.labels)
    value = training.evaluate(net, conversion, dataset)
    print(repr(value))
    return EXIT_OK


def _flush_stdout():
    """Write out what the command printed, so that a stdout that cannot take
    it fails the command. A stdout that fails is closed, which flushes once
    more and fails again but still closes it, so the interpreter does not
    flush it at exit."""
    if sys.stdout is None:  # the process was started without one
        return
    try:
        sys.stdout.flush()
    except OSError:
        with contextlib.suppress(OSError):
            sys.stdout.close()
        raise


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    collector's state is put back as it was found. A command is a short
    batch run that leaves few reference cycles, while the collector would
    scan the many small lists of a model document again and again as they
    are built and parsed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args, extra = parser.parse_known_args(argv)
        if extra:
            # refused here, not by parse_args, to show the command's usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        code = args.func(args)
        _flush_stdout()
        return code
    except _UsageError as exc:
        print(f"orthomask: error: {exc}", file=sys.stderr)
        (exc.parser or args.parser).print_usage(sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"orthomask: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InvalidStateError, ValueError, OSError) as exc:
        print(f"orthomask: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # an allocation refused, here or in a worker
        detail = f": {exc}" if str(exc) else ""
        print(f"orthomask: error: out of memory{detail}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if collecting:
            gc.enable()


def console_main() -> int:
    """The executable's entry point: run the command named by ``sys.argv``,
    then freeze the heap, and return the exit code.

    Every object still alive is then left out of the cyclic collection the
    interpreter runs as it shuts down, which would only scan what numpy,
    orjson and the command leave behind. ``main`` does not freeze: a
    process that goes on running after it keeps its heap collectable.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
