"""Parallel batch execution of wrangling scenarios.

The ROADMAP north-star asks for "as many scenarios as you can imagine"
served at production scale; this module runs whole families of generated
scenarios (see :mod:`repro.scenarios.synth`) concurrently:

- **process-pool execution** via :mod:`concurrent.futures` (the wrangling
  pipeline is pure Python and CPU-bound, so threads cannot scale it);
- **per-worker session reuse** — each worker process builds the transducer
  registry once and reuses it (reset between scenarios), so dependency
  parsing and stratification are paid once per worker, not per scenario;
- **deterministic seeding** — scenarios are generated inside the workers
  from their :class:`~repro.scenarios.synth.SynthConfig`, so a batch is
  reproducible and its per-scenario results are byte-identical to a
  sequential run of the same configs;
- **structured results** — one picklable :class:`ScenarioRunResult` per
  scenario (including a result-table fingerprint for equivalence checks)
  and an aggregate :class:`BatchReport` with cost/quality totals.

Command line::

    python -m repro.wrangler.batch --families product_catalog sensor_log \\
        --per-family 4 --entities 300 --workers 4 --json report.json
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.relational.table import Table
from repro.scenarios.base import Scenario
from repro.scenarios.synth import SynthConfig, family_names, generate_synthetic, scenario_suite
from repro.wrangler.config import WranglerConfig
from repro.wrangler.pipeline import Wrangler, build_default_registry

__all__ = [
    "EXECUTORS",
    "BatchConfig",
    "BatchReport",
    "ScenarioRunResult",
    "iter_run",
    "main",
    "run_batch",
    "run_scenario",
    "table_fingerprint",
    "wrangle_scenario",
]

#: Supported execution backends.
EXECUTORS = ("process", "thread", "serial")


def _default_batch_wrangler() -> WranglerConfig:
    """Per-scenario session config of a batch: snapshots off by default —
    batch feedback rounds re-run fully unless the caller turns the
    incremental engine on (``wrangler=WranglerConfig(enable_incremental=True)``)."""
    return WranglerConfig(enable_incremental=False)


@dataclass(frozen=True)
class BatchConfig:
    """How a batch of scenarios is executed.

    Session-level knobs (step budget, provenance/incremental toggles, the
    session seed) live in one canonical place — the nested
    :class:`~repro.wrangler.config.WranglerConfig` — shared with the
    interactive and service entry points.
    """

    #: Worker count (None → ``os.cpu_count()``, capped at the batch size).
    workers: int | None = None
    #: One of :data:`EXECUTORS`. ``process`` is the only backend that scales
    #: CPU-bound wrangling; ``thread``/``serial`` exist for debugging and as
    #: the sequential baseline in benchmarks.
    executor: str = "process"
    #: Whether reference/master tables are bound as data context (phase 2).
    use_data_context: bool = True
    #: Simulated feedback annotations per scenario (0 skips the phase).
    feedback_budget: int = 0
    #: How many feedback rounds each scenario runs (annotate → revise →
    #: re-wrangle, ``feedback_budget`` annotations per round).
    feedback_rounds: int = 1
    #: The per-scenario session configuration. ``enable_incremental`` also
    #: selects the feedback-loop path: on, rounds are patched by the
    #: incremental engine; off, each round re-orchestrates fully.
    wrangler: WranglerConfig = field(default_factory=_default_batch_wrangler)

    def resolve_workers(self, batch_size: int) -> int:
        """The effective worker count for ``batch_size`` scenarios."""
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, batch_size))


@dataclass(frozen=True)
class ScenarioRunResult:
    """Structured outcome of wrangling one scenario (picklable)."""

    name: str
    family: str
    seed: int
    #: Ground-truth entity count and per-source volume of the scenario.
    entities: int
    source_count: int
    source_rows: int
    #: Pay-as-you-go phases that ran (bootstrap, data_context, feedback).
    phases: tuple[str, ...]
    #: Rows in the final materialised result.
    rows: int
    #: Total orchestration steps across all phases.
    steps: int
    #: Manual-action count (the paper's cost proxy).
    manual_actions: int
    #: Quality metrics of the final result, scored against ground truth.
    quality: dict[str, float]
    #: Order-independent fingerprint of the final result table.
    fingerprint: str
    #: Wall-clock seconds spent on this scenario (generation + wrangling).
    seconds: float
    #: PID of the worker that ran the scenario (not part of equivalence).
    worker: int = 0
    #: Error message when the scenario failed (None on success).
    error: str | None = None
    #: Summary of the lineage recorded for the scenario's result (see
    #: :meth:`repro.provenance.model.ProvenanceStore.stats`); None when
    #: tracking was disabled. Picklable, so process-pool workers ship it
    #: home with the rest of the result.
    provenance: dict[str, Any] | None = None
    #: How many feedback rounds the incremental engine patched in place
    #: (0 when feedback ran through full re-orchestration).
    incremental_patches: int = 0
    #: Whether this result was reloaded from a checkpoint (not recomputed).
    checkpointed: bool = False

    @property
    def ok(self) -> bool:
        """Whether the scenario ran to completion."""
        return self.error is None

    def equivalence_key(self) -> tuple:
        """The deterministic fields: equal configs must produce equal keys,
        regardless of executor, worker count or scheduling order."""
        return (
            self.name,
            self.family,
            self.seed,
            self.entities,
            self.source_count,
            self.source_rows,
            self.phases,
            self.rows,
            self.steps,
            self.manual_actions,
            tuple(sorted(self.quality.items())),
            self.fingerprint,
            self.error,
        )

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly rendering."""
        return {
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "entities": self.entities,
            "source_count": self.source_count,
            "source_rows": self.source_rows,
            "phases": list(self.phases),
            "rows": self.rows,
            "steps": self.steps,
            "manual_actions": self.manual_actions,
            "quality": dict(self.quality),
            "fingerprint": self.fingerprint,
            "seconds": round(self.seconds, 4),
            "worker": self.worker,
            "error": self.error,
            "provenance": dict(self.provenance) if self.provenance is not None else None,
            "incremental_patches": self.incremental_patches,
            "checkpointed": self.checkpointed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioRunResult":
        """Rebuild a result from its :meth:`as_dict` rendering."""
        provenance = payload.get("provenance")
        return cls(
            name=str(payload["name"]),
            family=str(payload["family"]),
            seed=int(payload["seed"]),
            entities=int(payload["entities"]),
            source_count=int(payload["source_count"]),
            source_rows=int(payload["source_rows"]),
            phases=tuple(payload.get("phases", ())),
            rows=int(payload["rows"]),
            steps=int(payload["steps"]),
            manual_actions=int(payload["manual_actions"]),
            quality={str(k): float(v) for k, v in dict(payload.get("quality", {})).items()},
            fingerprint=str(payload["fingerprint"]),
            seconds=float(payload.get("seconds", 0.0)),
            worker=int(payload.get("worker", 0)),
            error=payload.get("error"),
            provenance=dict(provenance) if provenance is not None else None,
            incremental_patches=int(payload.get("incremental_patches", 0)),
            checkpointed=bool(payload.get("checkpointed", False)),
        )


@dataclass
class BatchReport:
    """Aggregate outcome of one batch run."""

    results: list[ScenarioRunResult]
    wall_seconds: float
    workers: int
    executor: str

    @property
    def succeeded(self) -> list[ScenarioRunResult]:
        """Results that ran to completion, in input order."""
        return [result for result in self.results if result.ok]

    @property
    def failed(self) -> list[ScenarioRunResult]:
        """Results that errored, in input order."""
        return [result for result in self.results if not result.ok]

    def aggregate(self) -> dict[str, Any]:
        """Deterministic cost/quality totals (independent of timing and of
        how the batch was scheduled across workers)."""
        succeeded = self.succeeded
        quality_sum: dict[str, float] = {}
        for result in succeeded:
            for metric, value in result.quality.items():
                quality_sum[metric] = quality_sum.get(metric, 0.0) + value
        count = len(succeeded)
        quality_mean = {metric: total / count for metric, total in quality_sum.items()}
        return {
            "scenarios": len(self.results),
            "succeeded": count,
            "failed": len(self.failed),
            "rows": sum(result.rows for result in succeeded),
            "steps": sum(result.steps for result in succeeded),
            "manual_actions": sum(result.manual_actions for result in succeeded),
            "quality_sum": {metric: quality_sum[metric] for metric in sorted(quality_sum)},
            "quality_mean": {metric: quality_mean[metric] for metric in sorted(quality_mean)},
        }

    def by_family(self) -> dict[str, dict[str, Any]]:
        """Per-family scenario counts, rows and mean overall quality."""
        grouped: dict[str, list[ScenarioRunResult]] = {}
        for result in self.succeeded:
            grouped.setdefault(result.family, []).append(result)
        summary = {}
        for family in sorted(grouped):
            results = grouped[family]
            overall = [result.quality.get("overall", 0.0) for result in results]
            summary[family] = {
                "scenarios": len(results),
                "rows": sum(result.rows for result in results),
                "steps": sum(result.steps for result in results),
                "quality_overall_mean": sum(overall) / len(overall),
            }
        return summary

    def fingerprints(self) -> dict[str, str]:
        """Scenario name → result fingerprint (for equivalence checks)."""
        return {result.name: result.fingerprint for result in self.results}

    def as_dict(self) -> dict[str, Any]:
        """A JSON-friendly rendering of the whole report."""
        return {
            "wall_seconds": round(self.wall_seconds, 4),
            "workers": self.workers,
            "executor": self.executor,
            "aggregate": self.aggregate(),
            "by_family": self.by_family(),
            "results": [result.as_dict() for result in self.results],
        }


# -- per-worker session state -------------------------------------------------

#: Per-thread (and therefore per-process) wrangling session state. Building
#: the default registry parses and stratifies every transducer's dependency
#: rules; reusing it across the scenarios a worker serves pays that cost
#: once. ``reset_all`` clears execution history between scenarios, and every
#: scenario still gets a fresh knowledge base.
_worker_state = threading.local()


def _worker_registry():
    registry = getattr(_worker_state, "registry", None)
    if registry is None:
        registry = build_default_registry()
        _worker_state.registry = registry
        _worker_state.sessions = 0
    registry.reset_all()
    _worker_state.sessions += 1
    return registry


def _worker_sessions() -> int:
    """How many scenarios this worker has served (diagnostics/tests)."""
    return getattr(_worker_state, "sessions", 0)


def table_fingerprint(table: Table | None) -> str:
    """An order-independent fingerprint of a table (schema + row multiset)."""
    digest = hashlib.sha256()
    if table is None:
        digest.update(b"<no result>")
        return digest.hexdigest()
    digest.update("|".join(table.schema.attribute_names).encode("utf-8"))
    for row in sorted(repr(values) for values in table.tuples()):
        digest.update(b"\x1f")
        digest.update(row.encode("utf-8"))
    return digest.hexdigest()


# -- single-scenario execution ------------------------------------------------


def wrangle_scenario(scenario: Scenario, batch: BatchConfig | None = None) -> ScenarioRunResult:
    """Wrangle one (already generated) scenario through the standard phases."""
    batch = batch or BatchConfig()
    started = time.perf_counter()
    truth = scenario.ground_truth
    key = scenario.evaluation_key
    wrangler = Wrangler(config=batch.wrangler, registry=_worker_registry())
    scenario.install(wrangler)
    phases = ["bootstrap"]
    result = wrangler.run("bootstrap", ground_truth=truth, ground_truth_key=key)
    if batch.use_data_context and (scenario.reference is not None or scenario.master is not None):
        if scenario.reference is not None:
            wrangler.add_reference_data(scenario.reference)
        if scenario.master is not None:
            wrangler.add_master_data(scenario.master)
        phases.append("data_context")
        result = wrangler.run("data_context", ground_truth=truth, ground_truth_key=key)
    incremental_patches = 0
    if batch.feedback_budget > 0:
        from repro.feedback.annotations import simulate_feedback as simulate

        for round_number in range(max(1, batch.feedback_rounds)):
            table = wrangler.result()
            if table is None:
                break
            annotations = simulate(
                table,
                truth,
                key,
                budget=batch.feedback_budget,
                seed=scenario.seed + round_number,
                strategy="targeted",
                id_prefix="sim" if round_number == 0 else f"sim_r{round_number}",
            )
            result = wrangler._apply_feedback(annotations, ground_truth=truth, ground_truth_key=key)
            if result.details.get("incremental", {}).get("applied"):
                incremental_patches += 1
            phases.append("feedback" if round_number == 0 else f"feedback{round_number + 1}")

    quality = dict(result.quality.as_dict()) if result.quality is not None else {}
    if result.quality is not None:
        quality["overall"] = result.quality.overall()
    provenance_summary = None
    if batch.wrangler.track_provenance:
        provenance_summary = wrangler.provenance.stats(wrangler.result_name())
    return ScenarioRunResult(
        name=scenario.name,
        family=scenario.family,
        seed=scenario.seed,
        entities=len(truth),
        source_count=scenario.source_count,
        source_rows=scenario.total_source_rows,
        phases=tuple(phases),
        rows=result.row_count,
        steps=len(wrangler.trace),
        manual_actions=wrangler.manual_actions(),
        quality=quality,
        fingerprint=table_fingerprint(result.table),
        seconds=time.perf_counter() - started,
        worker=os.getpid(),
        provenance=provenance_summary,
        incremental_patches=incremental_patches,
    )


def run_scenario(config: SynthConfig, batch: BatchConfig | None = None) -> ScenarioRunResult:
    """Generate and wrangle one scenario; failures become error results."""
    batch = batch or BatchConfig()
    started = time.perf_counter()
    try:
        scenario = generate_synthetic(config)
        return wrangle_scenario(scenario, batch)
    except Exception as exc:  # noqa: BLE001 - one bad scenario must not kill the batch
        return ScenarioRunResult(
            name=config.label(),
            family=config.family,
            seed=config.seed,
            entities=config.entities,
            source_count=config.sources,
            source_rows=0,
            phases=(),
            rows=0,
            steps=0,
            manual_actions=0,
            quality={},
            fingerprint="",
            seconds=time.perf_counter() - started,
            worker=os.getpid(),
            error=f"{type(exc).__name__}: {exc}",
        )


# -- checkpointing ------------------------------------------------------------


def _shard_fingerprint(config: SynthConfig, batch: BatchConfig) -> str:
    """A deterministic fingerprint of one shard (scenario config + the
    batch knobs that shape its result). Executor/worker knobs are excluded:
    they affect scheduling, not outcomes."""
    digest = hashlib.sha256()
    digest.update(repr(config).encode("utf-8"))
    digest.update(
        repr(
            (
                batch.use_data_context,
                batch.feedback_budget,
                batch.feedback_rounds,
                batch.wrangler.enable_incremental,
                batch.wrangler.max_steps,
                batch.wrangler.track_provenance,
            )
        ).encode("utf-8")
    )
    return digest.hexdigest()


def _checkpoint_path(directory: str, config: SynthConfig, fingerprint: str) -> str:
    safe_label = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in config.label())
    return os.path.join(directory, f"{safe_label}-{fingerprint[:16]}.json")


def _load_checkpoint(
    directory: str, config: SynthConfig, batch: BatchConfig
) -> ScenarioRunResult | None:
    """A completed shard result, if a fingerprint-matching checkpoint exists.

    Anything suspicious — unreadable file, wrong fingerprint (the config or
    batch knobs changed since the checkpoint was written), failed result —
    means the shard re-runs; resuming must never resurrect stale results.
    """
    fingerprint = _shard_fingerprint(config, batch)
    path = _checkpoint_path(directory, config, fingerprint)
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("shard_fingerprint") != fingerprint:
        return None
    try:
        result = ScenarioRunResult.from_dict(payload["result"])
    except (KeyError, TypeError, ValueError):
        return None
    if not result.ok:
        return None
    return replace(result, checkpointed=True)


def _write_checkpoint(
    directory: str, config: SynthConfig, batch: BatchConfig, result: ScenarioRunResult
) -> None:
    """Persist one completed shard (failures are not checkpointed)."""
    if not result.ok:
        return
    fingerprint = _shard_fingerprint(config, batch)
    path = _checkpoint_path(directory, config, fingerprint)
    payload = {"shard_fingerprint": fingerprint, "result": result.as_dict()}
    temporary = f"{path}.tmp.{os.getpid()}"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(temporary, path)


# -- batch execution ----------------------------------------------------------


def _resolve_batch(
    batch: BatchConfig | None, workers: int | None, executor: str | None
) -> BatchConfig:
    batch = batch or BatchConfig()
    if workers is not None:
        batch = replace(batch, workers=workers)
    if executor is not None:
        batch = replace(batch, executor=executor)
    if batch.executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {batch.executor!r}; expected one of {', '.join(EXECUTORS)}"
        )
    return batch


def iter_run(
    configs: Iterable[SynthConfig],
    batch: BatchConfig | None = None,
    *,
    workers: int | None = None,
    executor: str | None = None,
    checkpoint_dir: str | None = None,
):
    """Run many scenarios, yielding each :class:`ScenarioRunResult` as it lands.

    Results stream back in input order whatever the executor, and each
    per-scenario result is identical to what a sequential run of the same
    config produces (scenarios are generated from their seeds inside the
    workers). Unlike :func:`run_batch`, only the in-flight results are held
    in memory — million-scenario sweeps can consume (aggregate, write out,
    discard) results as they arrive. ``workers``/``executor`` override the
    corresponding :class:`BatchConfig` fields.

    With ``checkpoint_dir``, every completed shard is persisted there and a
    restarted sweep reloads it instead of recomputing — verified against a
    fingerprint of the scenario config and the result-shaping batch knobs,
    so an edited sweep never resumes from stale shards. Reloaded results are
    flagged ``checkpointed=True``; failed shards always re-run.

    Closing the generator early shuts the worker pool down (in-flight
    scenarios finish, queued ones are abandoned where the platform allows).
    """
    batch = _resolve_batch(batch, workers, executor)
    config_list = list(configs)
    if not config_list:
        return

    cached: dict[int, ScenarioRunResult] = {}
    pending: list[tuple[int, SynthConfig]] = []
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        for position, config in enumerate(config_list):
            result = _load_checkpoint(checkpoint_dir, config, batch)
            if result is not None:
                cached[position] = result
            else:
                pending.append((position, config))
    else:
        pending = list(enumerate(config_list))

    effective_workers = batch.resolve_workers(max(1, len(pending)))
    run_one = functools.partial(run_scenario, batch=batch)
    pending_configs = [config for _position, config in pending]

    def fresh_results():
        if not pending_configs:
            return
        if batch.executor == "serial" or effective_workers == 1:
            for config in pending_configs:
                yield run_one(config)
        elif batch.executor == "process":
            # Prefer fork so workers inherit the parent's state — in
            # particular scenario families registered at runtime via
            # ``register_family``. Under spawn/forkserver (no fork on the
            # platform), workers re-import the modules, so custom families
            # must be registered at import time.
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=effective_workers, mp_context=context) as pool:
                yield from pool.map(run_one, pending_configs)
        else:
            with ThreadPoolExecutor(max_workers=effective_workers) as pool:
                yield from pool.map(run_one, pending_configs)

    fresh = fresh_results()
    fresh_positions = {position for position, _config in pending}
    for position, config in enumerate(config_list):
        if position in fresh_positions:
            result = next(fresh)
            if checkpoint_dir is not None:
                _write_checkpoint(checkpoint_dir, config, batch, result)
        else:
            result = cached[position]
        yield result


def run_batch(
    configs: Iterable[SynthConfig],
    batch: BatchConfig | None = None,
    *,
    workers: int | None = None,
    executor: str | None = None,
    checkpoint_dir: str | None = None,
) -> BatchReport:
    """Run many scenarios and aggregate their results.

    A thin, fully-materialising wrapper over :func:`iter_run`: collects
    every result into a :class:`BatchReport`. Use :func:`iter_run` directly
    when the batch is too large to hold all results at once.
    """
    batch = _resolve_batch(batch, workers, executor)
    config_list = list(configs)
    started = time.perf_counter()
    results = list(iter_run(config_list, batch, checkpoint_dir=checkpoint_dir))
    wall = time.perf_counter() - started
    return BatchReport(
        results=results,
        wall_seconds=wall,
        workers=batch.resolve_workers(len(config_list)),
        executor=batch.executor,
    )


# -- command line -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.wrangler.batch",
        description="Generate and wrangle a batch of synthetic scenarios in parallel.",
    )
    parser.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help=f"scenario families (default: all of {', '.join(family_names())})",
    )
    parser.add_argument(
        "--per-family", type=int, default=2, help="scenario variants per family (default 2)"
    )
    parser.add_argument(
        "--entities", type=int, default=300, help="ground-truth entities per scenario"
    )
    parser.add_argument("--sources", type=int, default=2, help="source tables per scenario")
    parser.add_argument("--noise", type=float, default=0.08, help="per-cell conflict rate")
    parser.add_argument("--missing", type=float, default=0.08, help="per-cell missing rate")
    parser.add_argument(
        "--missing-pattern", default="random", help="missing pattern: random, column or tail"
    )
    parser.add_argument(
        "--drift", type=float, default=0.5, help="per-source schema-drift probability"
    )
    parser.add_argument(
        "--reference-size",
        type=float,
        default=1.0,
        help="fraction of the directory exposed as reference data",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed for the suite")
    parser.add_argument("--workers", type=int, default=None, help="workers (default: CPU count)")
    parser.add_argument(
        "--executor", choices=EXECUTORS, default="process", help="execution backend"
    )
    parser.add_argument(
        "--feedback-budget",
        type=int,
        default=0,
        help="simulated feedback annotations per scenario (0 skips the phase)",
    )
    parser.add_argument(
        "--feedback-rounds",
        type=int,
        default=1,
        help="feedback rounds per scenario (annotate, revise, re-wrangle)",
    )
    parser.add_argument(
        "--incremental",
        default=False,
        action=argparse.BooleanOptionalAction,
        help="apply feedback through the incremental re-wrangling engine "
        "instead of full re-orchestration (default: --no-incremental)",
    )
    parser.add_argument(
        "--mix-families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help="mix distractor sources from these families into every scenario",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="persist completed shards here; a restarted sweep reloads them "
        "(fingerprint-verified) instead of recomputing",
    )
    parser.add_argument(
        "--data-context",
        default=True,
        action=argparse.BooleanOptionalAction,
        help="bind reference/master tables as data context "
        "(default: --data-context; --no-data-context skips the phase)",
    )
    parser.add_argument(
        "--provenance",
        default=True,
        action=argparse.BooleanOptionalAction,
        help="record why-provenance while wrangling (default: --provenance; "
        "--no-provenance is faster, but results cannot be explained)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=200, help="orchestration step budget per scenario"
    )
    parser.add_argument(
        "--json", type=str, default=None, metavar="PATH", help="write the report as JSON to PATH"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the per-scenario table")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    configs = scenario_suite(
        args.families,
        per_family=args.per_family,
        seed=args.seed,
        entities=args.entities,
        sources=args.sources,
        noise=args.noise,
        missing=args.missing,
        missing_pattern=args.missing_pattern,
        schema_drift=args.drift,
        reference_size=args.reference_size,
        mix_families=tuple(args.mix_families) if args.mix_families else (),
    )
    batch = BatchConfig(
        workers=args.workers,
        executor=args.executor,
        use_data_context=args.data_context,
        feedback_budget=args.feedback_budget,
        feedback_rounds=args.feedback_rounds,
        wrangler=WranglerConfig(
            max_steps=args.max_steps,
            track_provenance=args.provenance,
            enable_incremental=args.incremental,
        ),
    )
    report = run_batch(configs, batch, checkpoint_dir=args.checkpoint_dir)

    if not args.quiet:
        for result in report.results:
            if result.ok:
                overall = result.quality.get("overall", 0.0)
                print(
                    f"ok   {result.name}: rows={result.rows} steps={result.steps} "
                    f"quality={overall:.4f} seconds={result.seconds:.2f}"
                )
            else:
                print(f"FAIL {result.name}: {result.error}")
    aggregate = report.aggregate()
    print(
        f"batch: {aggregate['succeeded']}/{aggregate['scenarios']} scenarios ok, "
        f"{aggregate['rows']} result rows, {aggregate['steps']} steps, "
        f"workers={report.workers} ({report.executor}), wall={report.wall_seconds:.2f}s"
    )
    for family, stats in report.by_family().items():
        print(
            f"  {family}: scenarios={stats['scenarios']} rows={stats['rows']} "
            f"quality={stats['quality_overall_mean']:.4f}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    return 0 if not report.failed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI test
    raise SystemExit(main())
