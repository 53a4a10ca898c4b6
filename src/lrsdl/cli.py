"""Command-line entry point: synth, train, classify, bench.

Exit codes are a stable contract: 0 success, 2 usage or input error,
3 numerical abort.
"""

import argparse
import os
import sys

from .archive import load_model, save_model, write_trace
from .classifier import classify, evaluate, score_predictions
from .data import Dataset, HyperParams, generate_synthetic
from .errors import DimensionError, NumericalError, ToolkitError
from .learner import TrainConfig, bench_joint_vs_sequential, fit
from .matio import load_labels, load_matrix, save_labels, save_matrix


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lrsdl",
        description="Train and apply discriminative dictionaries with a "
        "low-rank shared part.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--dim", type=int, default=30)
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--kc", type=int, default=5, help="atoms per planted class dictionary")
    p.add_argument("--k0", type=int, default=0, help="planted shared dictionary size")
    p.add_argument("--shared-rank", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model and write its archive")
    p.add_argument("--data", required=True, help="feature matrix (.lmx or .csv)")
    p.add_argument("--labels", required=True, help="label file, one integer per line")
    p.add_argument("--kc", type=int, required=True, help="atoms per class dictionary")
    p.add_argument("--k0", type=int, default=0, help="shared dictionary size")
    p.add_argument("--lambda1", type=float, default=0.001)
    p.add_argument("--lambda2", type=float, default=0.01)
    p.add_argument("--eta", type=float, default=0.1, help="nuclear-norm weight")
    p.add_argument("--iters", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--w", type=float, default=0.5, help="residual/coefficient score mix")
    p.add_argument("--out", required=True, help="model archive directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("classify", help="label samples with a trained model")
    p.add_argument("--model", required=True, help="model archive directory")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", default=None, help="optional true labels for scoring")
    p.add_argument("--w", type=float, default=None, help="override the stored score mix")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bench", help="compare joint and per-class coders")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--iters", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for trace CSVs")
    p.set_defaults(func=_cmd_bench)
    return parser


def _cmd_synth(args):
    data, truth = generate_synthetic(
        C=args.classes,
        d=args.dim,
        n_c=args.per_class,
        k_c=args.kc,
        k0=args.k0,
        shared_rank=args.shared_rank,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    save_matrix(data.Y, os.path.join(args.out, "Y.lmx"))
    save_labels(data.labels, os.path.join(args.out, "labels.csv"))
    save_matrix(truth.D, os.path.join(args.out, "D.lmx"))
    save_matrix(truth.shared_dict, os.path.join(args.out, "D0.lmx"))
    print(
        f"wrote {data.d}x{data.N} samples with {data.C} classes to {args.out}"
    )
    return 0


def _load_dataset(data_path, labels_path):
    Y = load_matrix(data_path)
    labels = load_labels(labels_path)
    return Dataset.from_arrays(Y, labels)


def _cmd_train(args):
    data = _load_dataset(args.data, args.labels)
    hyper = HyperParams(
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        eta=args.eta,
        w=args.w,
        outer_iters=args.iters,
        seed=args.seed,
    )
    config = TrainConfig(hyper=hyper, k_c=args.kc, k0=args.k0)
    model = fit(data, config)
    save_model(model, args.out)
    if model.aborted:
        print(
            f"training aborted; partial model written to {args.out}", file=sys.stderr
        )
        return 3
    print(f"final_objective={model.trace[-1].objective:.6f} model={args.out}")
    return 0


def _cmd_classify(args):
    model = load_model(args.model)
    Y = load_matrix(args.data)
    if Y.shape[0] != model.d:
        raise DimensionError(
            f"data has {Y.shape[0]} features, model expects {model.d}"
        )
    labels = None
    if args.labels is not None:
        labels = load_labels(args.labels)
        if labels.shape != (Y.shape[1],):
            raise DimensionError(
                f"{labels.shape[0]} labels for {Y.shape[1]} samples"
            )
    pred = classify(Y, model, w=args.w)
    if labels is not None:
        accuracy, confusion = score_predictions(labels, pred.label, model.C)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "predictions.csv"), "w") as fh:
        fh.write("index,true_label,pred_label,score_pred\n")
        for j, label in enumerate(pred.label):
            true = int(labels[j]) if labels is not None else 0
            score = pred.per_class_scores[label - 1, j]
            fh.write(f"{j + 1},{true},{label},{score:.17g}\n")
    if labels is not None:
        with open(os.path.join(args.out, "confusion.csv"), "w") as fh:
            for row in confusion:
                fh.write(",".join(str(v) for v in row) + "\n")
        print(f"accuracy={accuracy:.4f}")
    return 0


def _cmd_bench(args):
    data = _load_dataset(args.data, args.labels)
    # k_c = n_c mirrors the reference comparison setup; k0 stays 0 so both
    # coders face the same objective
    hyper = HyperParams(outer_iters=args.iters, seed=args.seed)
    config = TrainConfig(hyper=hyper, k_c=data.n_c, k0=0)
    result = bench_joint_vs_sequential(data, config)
    os.makedirs(args.out, exist_ok=True)
    joint, seq = result.joint_model, result.sequential_model
    write_trace(joint.trace, os.path.join(args.out, "joint.csv"))
    write_trace(seq.trace, os.path.join(args.out, "sequential.csv"))
    jf, sf = joint.trace[-1], seq.trace[-1]
    print(
        f"joint_final={jf.objective:.6f} seq_final={sf.objective:.6f} "
        f"joint_time={jf.seconds:.3f} seq_time={sf.seconds:.3f}"
    )
    j_acc, _ = evaluate(data, joint)
    s_acc, _ = evaluate(data, seq)
    print(f"joint_train_acc={j_acc:.4f} seq_train_acc={s_acc:.4f}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
