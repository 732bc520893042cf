"""One workload in a closed loop through concepthead's public API.

A cycle is what a user does with the head: start a model (param init, or
the checkpoint saved in set-up), `trainer.fit` one epoch, `trainer.evaluate`
the held-out file, save a checkpoint and run the `explain` command on it.
Each call starts when the previous one returns, in this one process.
Cycles repeat, each from the same starting model, until the time is used.

On a shared machine the speed can shift by half for seconds to minutes at a
time. A fixed loop of the head's grain (the yardstick) is therefore timed
while every measured call runs, and the call's wall time is scaled by
REF_ITER_S over the yardstick's time per iteration: reported times read as
they would while the yardstick runs at REF_ITER_S. A metric is the lower
quartile of its scaled unit times over the run; raw times go to the result
file as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import math
import os
import platform
import resource
import signal
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from concepthead import autodiff, cli, data, head, losses, metrics, trainer
from concepthead.autodiff import Tensor
from concepthead.errors import ConceptHeadError

from tracer import Tracer, by_root
from workloads import TOPK, Workload, write_inputs

LAYERS = (data, autodiff, head, losses, trainer, metrics, cli)
NODE_FREE_OPS = {"backward", "grad_check", "detach"}  # public autodiff calls that add no tape node
SETUP_REPEATS = 15
EXPLAIN_CALLS = 4  # explain commands per cycle: many short explain units in every run
CHECK_SAMPLES = 4
YARDSTICK_ITERS = 40      # about 1 ms a run
SAMPLE_PERIOD_S = 0.02
REF_ITER_S = 25e-6        # yardstick time per iteration on a quiet 2-core x86_64 (AVX-512) VM

END_TO_END_UNITS = {
    "train_sps": "1/s", "eval_sps": "1/s", "explain_sps": "1/s",
    "fit_eval_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "autodiff.nodes_per_sample": "count/sample",
    "autodiff.backward_us_per_sample": "us/sample",
    "autodiff.backward_calls_per_step": "count/step",
    "head.forward_us_per_sample": "us/sample",
    "head.layer_norm_us_per_sample": "us/sample",
    "head.slot_attention_us_per_sample": "us/sample",
    "head.gru_us_per_sample": "us/sample",
    "head.refine_self_us_per_sample": "us/sample",
    "head.readback_us_per_sample": "us/sample",
    "losses.cross_entropy_us_per_sample": "us/sample",
    "losses.explanation_us_per_sample": "us/sample",
    "losses.sparsity_us_per_sample": "us/sample",
    "trainer.adamw_us_per_step": "us/step",
    "trainer.shuffle_ms_per_epoch": "ms/epoch",
    "trainer.loop_self_us_per_sample": "us/sample",
    "trainer.checkpoint_parse_ms": "ms",
    "trainer.checkpoint_write_ms": "ms",
    "data.parse_us_per_sample": "us/sample",
    "metrics.entropy_us_per_sample": "us/sample",
    "metrics.heatmap_us_per_sample": "us/sample",
    "cli.explain_self_us_per_sample": "us/sample",
    "trace.overhead_pct": "%",
}


class Yardstick:
    """A fixed define-by-run loop on 8x32 arrays, of the head's grain: the
    forward pass records closures, the backward pass calls them in reverse."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.x0 = rng.standard_normal((8, 32))
        self.w = rng.standard_normal((32, 32))

    def per_iteration(self) -> float:
        """Seconds per loop iteration of one timed run."""
        started = time.perf_counter()
        w, x, tape = self.w, self.x0, []
        for _ in range(YARDSTICK_ITERS):
            y = x @ w
            tape.append(lambda g: g @ w.T)
            e = np.exp(y - y.max(axis=1, keepdims=True))
            s = e / e.sum(axis=1, keepdims=True)
            tape.append(lambda g, s=s: s * (g - (g * s).sum(axis=1, keepdims=True)))
            x = s @ w.T
            x = x - x.mean(axis=1, keepdims=True)
            tape.append(lambda g: g - g.mean(axis=1, keepdims=True))
        g = np.ones_like(x)
        for vjp in reversed(tape):
            g = vjp(g)
        return (time.perf_counter() - started) / YARDSTICK_ITERS

    def quiet(self) -> float:
        """Fastest of a few back-to-back runs: the current speed without the odd
        interrupted run."""
        return min(self.per_iteration() for _ in range(5))


@dataclass(frozen=True)
class Unit:
    """One measured call: its own wall time and the yardstick's time per
    iteration while it ran."""

    raw_s: float
    yardstick_s: float

    @property
    def s(self) -> float:
        return self.raw_s * REF_ITER_S / self.yardstick_s


def lower_quartile(times: list[float]) -> float:
    """The summary of a run's unit times. Slowdowns the yardstick misses only
    ever lengthen a unit, so the lower quartile is steadier than the median."""
    return statistics.quantiles(times, n=4, method="inclusive")[0] if len(times) > 1 else times[0]


class Meter:
    """Times calls together with the yardstick.

    Sampling on, a SIGALRM handler runs the yardstick every SAMPLE_PERIOD_S
    while the call runs (between two bytecodes of the program), and the
    handler's time is taken out of the call's. Sampling off, the yardstick
    runs before and after the call; traced runs use that, because handler
    time would land in the self time of whatever span was open.
    """

    def __init__(self, sampling: bool) -> None:
        self.sampling = sampling
        self.yardstick = Yardstick()
        self.yardstick.quiet()  # warm-up: first calls pay one-off allocation costs
        self.last = self.yardstick.quiet()

    def measure(self, fn: Callable, *args, **kwargs):
        samples: list[float] = []
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            started = time.perf_counter()
            samples.append(self.yardstick.per_iteration())
            spent += time.perf_counter() - started

        if self.sampling:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            started = time.perf_counter()
            out = fn(*args, **kwargs)
            raw = time.perf_counter() - started
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        after = self.yardstick.quiet()
        speed = statistics.fmean(samples) if samples else (self.last + after) / 2
        self.last = after
        return out, Unit(raw - spent, speed)


@dataclass
class CycleOutput:
    state: trainer.TrainState
    records: list  # fit's epoch records, then the held-out record
    explain_rcs: list[int]
    units: dict[str, list[Unit]]


def layer_targets() -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every public function of each layer.

    autodiff contributes the functions in its __all__. A function bound into
    another module by `from ... import` is wrapped there too, under the name
    of the module that defines it.
    """
    homes = {m.__name__: m.__name__.rpartition(".")[2] for m in LAYERS}
    targets = []
    for module in LAYERS:
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ not in homes:
                continue
            home = homes[obj.__module__]
            if home == "autodiff" and obj.__name__ not in autodiff.__all__:
                continue
            targets.append((module, attr, f"{home}.{obj.__name__}"))
    return targets


def node_ops() -> list[str]:
    return [f"autodiff.{name}" for name in autodiff.__all__
            if inspect.isfunction(getattr(autodiff, name)) and name not in NODE_FREE_OPS]


class Run:
    def __init__(self, w: Workload, seed: int, workdir: Path) -> None:
        self.w, self.seed = w, seed
        self.cfg = w.train_config(seed)
        self.paths = write_inputs(w, seed, workdir)
        self.ckpt = workdir / "model.cctk"
        self.explain_dir = workdir / "explain"
        self.start_ckpt = workdir / "start.cctk"
        if w.from_checkpoint:
            trainer.save_checkpoint(trainer.init_train_state(self.cfg), self.cfg,
                                    str(self.start_ckpt))
        self.attempted = 0
        self.failures: list[str] = []
        self.meter: Meter | None = None

    # --- accounting -----------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def attempt(self, fn: Callable, *args, **kwargs):
        """One timed API call; counted as attempted before it runs."""
        self.attempted += 1
        return self.meter.measure(fn, *args, **kwargs)

    # --- the program's work ---------------------------------------------------

    def fresh_state(self) -> trainer.TrainState:
        if self.w.from_checkpoint:
            return trainer.load_checkpoint(str(self.start_ckpt))[0]
        return trainer.init_train_state(self.cfg)

    def setup(self):
        """The program's own set-up: parse both EMB1 files, then init or load the model."""
        train = data.read_emb(str(self.paths["train"]))
        heldout = data.read_emb(str(self.paths["heldout"]))
        return train, heldout, self.fresh_state()

    def cycle(self, train, heldout, phase: Callable) -> CycleOutput:
        cfg = self.cfg
        with phase("state"):
            state = self.fresh_state()
        with phase("train"):
            (state, records), fit = self.attempt(trainer.fit, train, cfg, state=state, epochs=1)
        with phase("eval"):
            record, ev = self.attempt(trainer.evaluate, heldout, state.params, cfg, seed=self.seed)
        with phase("save"):
            self.attempt(trainer.save_checkpoint, state, cfg, str(self.ckpt))
        argv = ["explain", "--data", str(self.paths["explain"]), "--checkpoint", str(self.ckpt),
                "--out", str(self.explain_dir), "--topk", str(TOPK), "--seed", str(self.seed)]
        rcs, explains = [], []
        for _ in range(EXPLAIN_CALLS):
            self.mark_outputs_stale()
            with phase("explain"), contextlib.redirect_stdout(io.StringIO()):
                rc, unit = self.attempt(cli.main, argv)
            rcs.append(rc)
            explains.append(unit)
        return CycleOutput(state, records + [record], rcs,
                           {"fit": [fit], "eval": [ev], "explain": explains})

    def mark_outputs_stale(self) -> None:
        """Zero the mtimes of the last explain outputs; the check counts only files
        written since. The command overwrites them in place: creating hundreds of
        files anew costs mostly kernel time, which varies far more between runs
        than the program's own work does."""
        if self.explain_dir.exists():
            for path in self.explain_dir.iterdir():
                os.utime(path, ns=(0, 0))

    # --- correctness ----------------------------------------------------------

    def check_setup(self, train, heldout) -> None:
        self.check(len(train) == self.w.n_train and len(heldout) == self.w.n_heldout,
                   f"parsed {len(train)}/{len(heldout)} samples")
        self.check(train.n_classes == heldout.n_classes == self.cfg.head.n_classes,
                   f"parsed {train.n_classes}/{heldout.n_classes} classes")

    def check_cycle(self, out: CycleOutput, heldout) -> None:
        for r in out.records:
            losses_ = (r.loss_cls, r.loss_expl, r.loss_sparse, r.loss_total)
            self.check(all(map(math.isfinite, losses_)), f"non-finite loss {losses_}")
        acc = out.records[-1].class_acc
        if self.w.min_class_acc is not None:
            self.check(acc >= self.w.min_class_acc, f"held-out class_acc {acc:.4f}")
        self.check(out.explain_rcs == [0] * EXPLAIN_CALLS, f"explain exited with {out.explain_rcs}")
        n = self.w.n_explain
        written = {p.name: p for p in self.explain_dir.glob("*") if p.stat().st_mtime_ns > 0}
        maps = sorted(p for name, p in written.items() if name.startswith("sample_")
                      and name.endswith(".csv"))
        n_pgm = sum(name.startswith("sample_") and name.endswith(".pgm") for name in written)
        self.check(len(maps) == n_pgm == n, f"explain wrote {n_pgm} heatmaps, {len(maps)} CSVs")
        topk = written.get("topk.csv")
        rows = len(topk.read_text().splitlines()) - 1 if topk else -1
        self.check(rows == n * TOPK, f"topk.csv has {rows} rows, expected {n * TOPK}")
        worst = max((abs(sum(map(float, line.split(","))) - 1.0)
                     for path in maps for line in path.read_text().splitlines()), default=0.0)
        self.check(worst <= 1e-12, f"exported map row sums off by {worst:.2e}")
        self.check_head(out.state, heldout)

    def check_head(self, state, heldout) -> None:
        """Row-stochastic maps, and the heads=1 faithfulness identity, on a fixed subset."""
        cfg = self.cfg.head
        rng = np.random.default_rng(self.seed)
        subset = [Tensor(s.features) for s in heldout.samples[:CHECK_SAMPLES]]
        for x in subset:
            out = head.head_forward(x, state.params, cfg, rng)
            worst = max(float(np.abs(m.data.sum(axis=1) - 1.0).max()) for m in out.maps())
            self.check(worst <= 1e-12, f"attention row sums off by {worst:.2e}")
        one = replace(cfg, heads=1)
        params = state.params if cfg.heads == 1 else head.init_head_params(one, rng)
        for x in subset:
            for pathway, inputs in ((params.spatial, x), (params.global_, head.class_token(x))):
                if pathway is None:
                    continue
                slots = head.refine_slots(inputs, pathway.slot, one, rng)
                attn, logits = head.multi_head_cross_attention(inputs, slots, pathway.cross, one)
                rel = head.relevance(attn)
                decomposed = head.decomposed_logits(slots, pathway.cross, rel, one)
                gap = float(np.abs(decomposed.data - logits.data).max())
                self.check(gap <= 1e-9, f"faithfulness gap {gap:.2e}")

    # --- loops ----------------------------------------------------------------

    def loop(self, seconds: float, train, heldout, tracer: Tracer | None = None,
             min_cycles: int = 1) -> list[tuple[bool, dict[str, list[Unit]]]]:
        """Cycles until the next one would end past `seconds`; with a tracer,
        every second cycle is traced. Returns (traced, unit times) per cycle;
        nothing else of a cycle is kept, so peak RSS stays the program's."""
        done: list[tuple[bool, dict[str, list[Unit]]]] = []
        started, last, i = time.perf_counter(), 0.0, 0
        while i < min_cycles or time.perf_counter() - started + last <= seconds:
            begun = time.perf_counter()
            traced = tracer is not None and i % 2 == 1
            try:
                if traced:
                    with tracer.patched(layer_targets()):
                        out = self.cycle(train, heldout, lambda name: tracer.span("phase." + name))
                else:
                    out = self.cycle(train, heldout, lambda name: contextlib.nullcontext())
                self.check_cycle(out, heldout)
                done.append((traced, out.units))
            except ConceptHeadError as err:
                self.failures.append(f"{type(err).__name__}: {err}")
            last = time.perf_counter() - begun
            i += 1
        if not done:
            raise RuntimeError("no cycle completed: " + "; ".join(self.failures[:3]))
        return done

    def end_to_end(self, seconds: float) -> tuple[dict[str, float], dict]:
        self.meter = Meter(sampling=True)
        setups = []
        for _ in range(SETUP_REPEATS):
            (train, heldout, _), unit = self.attempt(self.setup)
            setups.append(unit)
        self.check_setup(train, heldout)
        units = [cycle for _, cycle in self.loop(seconds, train, heldout)]
        w = self.w

        def times(kind):
            return [u.s for cycle in units for u in cycle[kind]]

        values = {
            "train_sps": w.n_train / lower_quartile(times("fit")),
            "eval_sps": w.n_heldout / lower_quartile(times("eval")),
            "explain_sps": w.n_explain / lower_quartile(times("explain")),
            "fit_eval_s": lower_quartile([a + b for a, b in zip(times("fit"), times("eval"))]),
            "setup_s": lower_quartile([u.s for u in setups]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        raw = {"setup": [vars(u) for u in setups],
               "cycles": [{k: [vars(u) for u in us] for k, us in c.items()} for c in units]}
        return values, raw

    def per_layer(self, seconds: float, spans_path: Path) -> tuple[dict[str, float], dict]:
        self.meter = Meter(sampling=False)
        tracer = Tracer()
        with tracer.patched(layer_targets()), tracer.span("phase.setup"):
            self.attempted += 1
            train, heldout, _ = self.setup()
        self.check_setup(train, heldout)
        done = self.loop(seconds, train, heldout, tracer, min_cycles=2)
        cycle_s = {flag: [sum(u.s for us in cycle.values() for u in us)
                          for traced, cycle in done if traced == flag] for flag in (False, True)}
        overhead = 100.0 * (lower_quartile(cycle_s[True]) / lower_quartile(cycle_s[False]) - 1.0)
        tracer.write(str(spans_path))
        yardstick = statistics.median(u.yardstick_s for traced, cycle in done if traced
                                      for us in cycle.values() for u in us)
        scale = REF_ITER_S / yardstick
        values = {name: value * scale if PER_LAYER_UNITS[name].startswith(("us", "ms")) else value
                  for name, value in layer_metrics(tracer, self.w, len(cycle_s[True]),
                                                   overhead).items()}
        return values, {"cycle_s": cycle_s, "yardstick_s": yardstick, "spans": len(tracer)}


def steps_between(tracer: Tracer, counted: str, boundary: str) -> list[int]:
    """Calls of `counted` between consecutive `boundary` calls, per boundary."""
    counted_id, boundary_id = tracer.name_id(counted), tracer.name_id(boundary)
    counts, n = [], 0
    for nid in tracer.name_ids:
        if nid == counted_id:
            n += 1
        elif nid == boundary_id:
            counts.append(n)
            n = 0
    return counts


def layer_metrics(tracer: Tracer, w: Workload, cycles: int,
                  overhead_pct: float) -> dict[str, float]:
    table = by_root(tracer)

    def stat(phase: str | None, names, field: int) -> float:
        rows = table.values() if phase is None else [table.get("phase." + phase, {})]
        return sum(row.get(name, (0, 0.0, 0.0))[field] for row in rows for name in names)

    def calls(phase, *names):
        return stat(phase, names, 0)

    def total(phase, *names):
        return stat(phase, names, 1)

    def own(phase, *names):
        return stat(phase, names, 2)

    def per(value, count):
        return value / count if count else 0.0

    n = {"train": w.n_train * cycles, "eval": w.n_heldout * cycles,
         "explain": w.n_explain * EXPLAIN_CALLS * cycles, "setup": w.n_train + w.n_heldout}
    h = w.headline
    us = 1e6

    def per_sample(phase, value):
        return per(value * us, n[phase])

    steps = steps_between(tracer, "autodiff.backward", "trainer.adamw_step")
    return {
        "autodiff.nodes_per_sample": per(calls(h, *node_ops()), n[h]),
        "autodiff.backward_us_per_sample": per_sample("train", total("train", "autodiff.backward")),
        "autodiff.backward_calls_per_step": statistics.median(steps) if steps else 0.0,
        "head.forward_us_per_sample": per_sample(h, total(h, "head.head_forward")),
        "head.layer_norm_us_per_sample": per_sample(h, total(h, "autodiff.layer_norm")),
        "head.slot_attention_us_per_sample": per_sample(h, total(h, "head.slot_attention")),
        "head.gru_us_per_sample": per_sample(h, total(h, "head.gru_update")),
        "head.refine_self_us_per_sample": per_sample(h, own(h, "head.refine_slots")),
        "head.readback_us_per_sample": per_sample(
            h, total(h, "head.multi_head_cross_attention")),
        "losses.cross_entropy_us_per_sample": per_sample(h, total(h, "losses.cross_entropy")),
        "losses.explanation_us_per_sample": per_sample(h, total(h, "losses.explanation_loss")),
        "losses.sparsity_us_per_sample": per_sample(h, total(h, "losses.sparsity_loss")),
        "trainer.adamw_us_per_step": per(total("train", "trainer.adamw_step") * us,
                                         calls("train", "trainer.adamw_step")),
        "trainer.shuffle_ms_per_epoch": per(total("train", "trainer.shuffled_indices") * 1e3,
                                            calls("train", "trainer.train_epoch")),
        "trainer.loop_self_us_per_sample": per_sample(
            h, own(h, "trainer.train_epoch", "trainer.evaluate")),
        "trainer.checkpoint_parse_ms": per(total(None, "trainer.load_checkpoint") * 1e3,
                                           calls(None, "trainer.load_checkpoint")),
        "trainer.checkpoint_write_ms": per(total(None, "trainer.save_checkpoint") * 1e3,
                                           calls(None, "trainer.save_checkpoint")),
        "data.parse_us_per_sample": per_sample("setup", total("setup", "data.read_emb")),
        "metrics.entropy_us_per_sample": per_sample(h, total(h, "metrics.attention_entropy")),
        "metrics.heatmap_us_per_sample": per_sample(
            "explain", total("explain", "metrics.export_heatmap")),
        "cli.explain_self_us_per_sample": per_sample("explain", own("explain", "cli.main")),
        "trace.overhead_pct": overhead_pct,
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head_ref = (git / "HEAD").read_text().strip()
        if not head_ref.startswith("ref: "):
            return head_ref
        ref = head_ref[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(root: Path, w: Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name, "seed": seed,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root), "src_sha256": digest.hexdigest(),
        "ref_iter_s": REF_ITER_S,
    }
