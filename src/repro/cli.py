"""The ``repro`` command line.

``repro --help`` lists the commands and ``repro <command> --help`` their
options. Each workflow is documented under ``docs/``; the spec files
``repro run`` executes are described in ``docs/scenario-specs.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro import __version__

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
#: ``repro characterize --grid`` default of each grid-based kind.
_DEFAULT_GRIDS = {"cronos": "160x64x64", "mhd": "24x48x32"}


def _floats(text):
    """A comma-separated flag value as a list of floats."""
    return [float(v) for v in text.split(",")]


def _make_app(args):
    """The one input the ``characterize`` flags describe, built by the catalog."""
    from repro.experiments.workloads import workload_kind

    grid = args.grid or _DEFAULT_GRIDS.get(args.app)
    (app,) = workload_kind(args.app).apps(
        dict(
            ligand_counts=(args.ligands,),
            atom_counts=(args.atoms,),
            fragment_counts=(args.fragments,),
            grids=None if grid is None else (tuple(int(v) for v in grid.split("x")),),
            steps=args.steps,
        )
    )
    return app


def _device(args):
    from repro.synergy.api import builtin_device

    return builtin_device(args.device, seed=args.seed)


def _mem_freq_list(args):
    return tuple(_floats(args.mem_freqs)) if args.mem_freqs else None


def _advice_line(advice, extra: str = "") -> str:
    """``run at <clock> (predicted speedup ..., normalized energy ...)``."""
    clock = f"{advice.freq_mhz:.0f} MHz"
    if advice.mem_freq_mhz is not None:
        clock += f" core / {advice.mem_freq_mhz:.0f} MHz mem"
    return (
        f"run at {clock} (predicted speedup {advice.predicted_speedup:.3f}, "
        f"normalized energy {advice.predicted_normalized_energy:.3f}{extra})"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_characterize(args) -> int:
    from repro.experiments.datasets import default_training_freqs
    from repro.experiments.figures import characterization_series
    from repro.experiments.report import render_characterization

    device = _device(args)
    app = _make_app(args)
    freqs = default_training_freqs(device, args.freqs)
    series = characterization_series(app, device, freqs_mhz=freqs, repetitions=args.reps)
    print(render_characterization(series, f"characterization", max_rows=args.max_rows))
    if args.output:
        from repro.io import save_characterization

        save_characterization(series.result, args.output)
        print(f"\nsaved sweep to {args.output}")
    return 0


def cmd_train(args) -> int:
    from repro.experiments.datasets import build_campaign, training_baseline_mhz
    from repro.io import save_dataset, save_domain_model
    from repro.ml import RandomForestRegressor
    from repro.modeling import DomainSpecificModel

    device = _device(args)
    campaign = build_campaign(
        device,
        args.app,
        freq_count=args.freqs,
        repetitions=args.reps,
        mem_freqs_mhz=_mem_freq_list(args),
    )
    # A 2-D sweep appends the memory-clock feature column; the dataset
    # carries the authoritative name list either way.
    model = DomainSpecificModel(
        campaign.dataset.feature_names,
        regressor_factory=lambda: RandomForestRegressor(
            n_estimators=args.trees, random_state=args.seed
        ),
        baseline_freq_mhz=training_baseline_mhz(device, campaign.freqs_mhz),
    ).fit(campaign.dataset)
    save_domain_model(model, args.output)
    print(
        f"trained on {len(campaign.dataset)} samples "
        f"({len(campaign.characterizations)} inputs x {len(campaign.freqs_mhz)} freqs); "
        f"model saved to {args.output}"
    )
    if args.dataset_output:
        save_dataset(campaign.dataset, args.dataset_output)
        print(f"dataset saved to {args.dataset_output}")
    return 0


def _load_model_and_profile(args):
    from repro.io import load_domain_model

    model = load_domain_model(args.model)
    features = _floats(args.features)
    prediction = model.predict_tradeoff(features, _serving_freqs(args))
    return model, features, prediction


def cmd_predict(args) -> int:
    from repro.pareto.front import half_bin_tolerance
    from repro.utils.tables import AsciiTable

    model, features, prediction = _load_model_and_profile(args)
    table = AsciiTable(
        ["freq (MHz)", "speedup", "norm. energy", "Pareto"],
        title=f"prediction for features {features} "
        f"(baseline {model.baseline_freq_mhz:.0f} MHz)",
    )
    front = prediction.pareto_front()
    tol = half_bin_tolerance(prediction.freqs_mhz)
    for f, sp, ne in zip(
        prediction.freqs_mhz, prediction.speedups, prediction.normalized_energies
    ):
        table.add_row([round(float(f)), sp, ne, "*" if front.contains_freq(float(f), tol_mhz=tol) else ""])
    print(table.render())
    print(f"\nPareto frequencies: {[round(float(f)) for f in prediction.pareto_frequencies()]}")
    return 0


def cmd_reproduce(args) -> int:
    from repro.experiments import evaluate_fig13, render_accuracy_rows
    from repro.experiments.configs import (
        FIG13_CRONOS_VALIDATION,
        FIG13_LIGEN_VALIDATION,
        cronos_label,
        ligen_label,
    )
    from repro.experiments.datasets import build_campaign, default_training_freqs
    from repro.experiments.workloads import workload_kind
    from repro.kernels.microbench import generate_microbenchmarks
    from repro.ml import RandomForestRegressor
    from repro.modeling import GeneralPurposeModel, cronos_static_spec, ligen_static_spec

    device = _device(args)

    def forest():
        return RandomForestRegressor(n_estimators=args.trees, random_state=args.seed)

    suite = generate_microbenchmarks()
    if args.quick:
        suite = suite[::4]
    freqs = default_training_freqs(device, args.freqs)
    print(
        f"training the general-purpose model on {len(suite)} micro-benchmarks "
        f"x {len(freqs)} frequencies ..."
    )
    gp = GeneralPurposeModel(regressor_factory=forest, repetitions=args.reps)
    gp.train(device, freqs_mhz=freqs, microbenchmarks=suite)

    if args.experiment == "fig13-cronos":
        kind, static, title = "cronos", cronos_static_spec(), "Fig 13a/b: Cronos model accuracy"
        quick = dict(steps=10)
        validation = [tuple(map(float, g)) for g in FIG13_CRONOS_VALIDATION]
        labels = [cronos_label(*g) for g in FIG13_CRONOS_VALIDATION]
    else:
        kind, static, title = "ligen", ligen_static_spec(), "Fig 13c/d: LiGen model accuracy"
        quick = dict(ligand_counts=(2, 256, 4096, 10000), atom_counts=(31, 89), fragment_counts=(4, 20))
        inputs = [
            (a, f, l) for (a, f, l) in FIG13_LIGEN_VALIDATION
            if not args.quick or l in (256, 10000)
        ]
        validation = [(float(l), float(f), float(a)) for (a, f, l) in inputs]
        labels = [ligen_label(a, f, l) for (a, f, l) in inputs]
    workload = workload_kind(kind)
    campaign = build_campaign(
        device, kind, {**workload.paper_params, **(quick if args.quick else {})},
        freq_count=args.freqs, repetitions=args.reps,
    )
    rows = evaluate_fig13(
        campaign, gp, static, workload.feature_names,
        validation_features=validation, labels=labels, regressor_factory=forest,
    )
    print(render_accuracy_rows(rows, title))
    return 0


def _campaign_progress(jobs: int):
    def progress(done: int, total: int, label: str, from_cache: bool) -> None:
        origin = "cache" if from_cache else f"jobs={jobs}"
        print(f"\r[{done}/{total}] {label} ({origin})", end="", flush=True)
        if done == total:
            print(flush=True)

    return progress


def _run_scenario(scenario) -> int:
    """Run a scenario, then print its summary, dataset path and advice.

    ``repro campaign`` and ``repro run`` both report through here.
    """
    import time

    from repro.experiments.report import render_campaign_summary
    from repro.specs.run import run_scenario
    from repro.specs.scenario import resolve_ref

    # Harness wall-clock for the run summary only — simulated measurements
    # always derive time from the timing model, never from the host clock.
    t0 = time.perf_counter()  # repro-lint: ignore[TIM001]
    outcome = run_scenario(
        scenario, progress=_campaign_progress(scenario.campaign.engine.jobs)
    )
    elapsed = time.perf_counter() - t0  # repro-lint: ignore[TIM001]

    print(render_campaign_summary(outcome.campaign, elapsed_s=elapsed))
    stats = outcome.engine.stats
    if stats.quarantined:
        print(
            f"warning: {stats.quarantined} sweep point(s) quarantined after "
            f"{outcome.engine.max_attempts} attempts each "
            f"({', '.join(stats.quarantined_points)}); campaign is "
            f"{stats.completeness():.1%} complete",
            file=sys.stderr,
        )
    if scenario.dataset_output is not None:
        # A flag-built scenario has no spec directory: echo its path as given.
        path = scenario.dataset_output
        if scenario.base_dir is not None:
            path = resolve_ref(path, scenario.base_dir)
        print(f"dataset saved to {path}")
    for row in outcome.advice:
        if row.error is not None:
            print(f"{row.label} {row.features}: objective infeasible — {row.error}")
        else:
            print(f"{row.label} {row.features}: {_advice_line(row.advice)}")
    return 0


def cmd_campaign(args) -> int:
    from repro.specs import ScenarioSpec, campaign_spec_from_cli

    fault_plan = None
    if args.inject:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(args.inject)
        print(f"fault injection: {fault_plan.describe()}")
    # The flags become the scenario a spec file would declare, and run
    # through the same executor and report as `repro run`.
    campaign = campaign_spec_from_cli(
        args.app, device=args.device, quick=args.quick, freq_count=args.freqs,
        repetitions=args.reps, seed=args.seed,
        method="replay" if args.replay else "serial",
        cache_dir=None if args.no_cache else args.cache_dir,
        max_retries=args.max_retries, mem_freqs_mhz=_mem_freq_list(args),
    )
    scenario = ScenarioSpec(
        name=args.app, campaign=campaign, fault_plan=fault_plan,
        dataset_output=args.dataset_output,
    )
    return _run_scenario(scenario)


def _lint_spec_file(path):
    """Read one spec file once and lint it; its record, or None on errors.

    The static pass gates every spec command: a spec that does not lint
    clean never runs. Diagnostics go to stderr.
    """
    from repro.analysis import has_errors, render_text
    from repro.specs import lint_spec_file

    record, diagnostics = lint_spec_file(path, explicit=True)
    if diagnostics:
        print(render_text(diagnostics), file=sys.stderr)
    return None if has_errors(diagnostics) else record


def cmd_run(args) -> int:
    import dataclasses
    import pathlib

    from repro.errors import SpecError
    from repro.specs import (
        RUNNABLE_SPEC_FORMATS,
        SPEC_FORMATS,
        CampaignSpec,
        FleetSpec,
        LifecycleSpec,
        ScenarioSpec,
    )

    path = pathlib.Path(args.scenario)
    record = _lint_spec_file(path)
    if record is None:
        return 1
    if args.check:
        print(f"{path}: spec is valid")
        return 0
    fmt = record["format"]
    spec_class = SPEC_FORMATS[fmt].spec_class
    if spec_class is None:
        raise SpecError(
            f"{path}: format {fmt!r} is check-only; repro run executes "
            f"{', '.join(RUNNABLE_SPEC_FORMATS)}"
        )
    if args.dataset_output and spec_class in (FleetSpec, LifecycleSpec):
        raise SpecError(f"--dataset-output: a {fmt!r} spec builds no dataset")
    spec = spec_class.from_record(record, file=str(path), base_dir=str(path.parent))

    if isinstance(spec, LifecycleSpec):
        # Lifecycle specs run the closed train→serve→observe→retrain
        # loop — same lint-then-run discipline, different runtime.
        from repro.lifecycle import run_lifecycle

        print(spec.describe())
        result = run_lifecycle(spec, closed_loop=True, progress=print)
        print(_render_lifecycle_result(result))
        return 0
    if isinstance(spec, FleetSpec):
        return _run_fleet(spec)

    scenario = spec
    if isinstance(spec, CampaignSpec):
        # A bare campaign spec runs as a scenario with no extras.
        scenario = ScenarioSpec(name=path.stem, campaign=spec, base_dir=str(path.parent))
    if args.dataset_output:
        # Resolve the override against the caller's cwd (like `repro
        # campaign --dataset-output`), not the scenario's directory.
        scenario = dataclasses.replace(
            scenario, dataset_output=str(pathlib.Path(args.dataset_output).absolute())
        )
    print(scenario.describe())
    return _run_scenario(scenario)


def cmd_tune(args) -> int:
    from repro.synergy.tuning import TuningMetric, select_frequency

    _, features, prediction = _load_model_and_profile(args)
    metric = TuningMetric(args.metric)
    decision = select_frequency(
        prediction.freqs_mhz,
        prediction.speedups,
        prediction.normalized_energies,
        metric=metric,
        max_speedup_loss=args.max_slowdown,
        energy_target=args.energy_target,
    )
    print(
        f"metric={metric.value}: pin the clock at {decision.freq_mhz:.0f} MHz "
        f"(predicted speedup {decision.predicted_speedup:.3f}, "
        f"normalized energy {decision.predicted_normalized_energy:.3f})"
    )
    return 0


def _serving_freqs(args) -> np.ndarray:
    from repro.errors import ServingError
    from repro.serving.service import grid_axis

    if args.freq_points >= 2 and args.freq_min >= args.freq_max:
        raise ServingError(
            f"frequency grid needs --freq-min < --freq-max for {args.freq_points} "
            f"points, got {args.freq_min:g} and {args.freq_max:g}"
        )
    return grid_axis(np.linspace(args.freq_min, args.freq_max, args.freq_points), "frequency")


def cmd_registry(args) -> int:
    import json

    from repro.serving import ModelRegistry

    registry = ModelRegistry(args.root)
    if args.registry_command == "add":
        device_signature = None
        if args.device:
            from repro.hw.device import create_device

            device_signature = create_device(args.device).spec.signature()
        manifest = registry.register(
            args.model,
            args.name,
            app=args.app,
            device_signature=device_signature,
            train_fingerprint=args.train_fingerprint,
        )
        print(
            f"registered {manifest.ref} ({manifest.app}, "
            f"{manifest.artifact_bytes} bytes, sha256 {manifest.artifact_sha256[:12]}...)"
        )
        return 0
    if args.registry_command == "list":
        manifests = registry.list()
        if args.format == "json":
            print(json.dumps([m.as_dict() for m in manifests], indent=2))
            return 0
        if not manifests:
            print(f"registry {registry.root} is empty")
            return 0
        for m in manifests:
            extras = []
            if m.device_signature_digest:
                extras.append(f"device {m.device_signature_digest[:12]}")
            if m.train_fingerprint:
                extras.append(f"train {m.train_fingerprint[:12]}")
            suffix = f" [{', '.join(extras)}]" if extras else ""
            print(
                f"{m.ref}  app={m.app}  features={','.join(m.feature_names)}  "
                f"baseline={m.baseline_freq_mhz:.0f}MHz  "
                f"sha256={m.artifact_sha256[:12]}{suffix}"
            )
        return 0
    # verify
    reports = registry.verify(name=args.name, version=args.version)
    if not reports:
        print(f"registry {registry.root} is empty — nothing to verify")
        return 0
    failures = 0
    for report in reports:
        if report.ok:
            print(f"{report.ref}: ok")
        else:
            failures += 1
            print(f"{report.ref}: FAILED — {report.error}")
    if failures:
        print(f"{failures}/{len(reports)} version(s) failed verification", file=sys.stderr)
        return 1
    return 0


def cmd_advise(args) -> int:
    import json

    from repro.serving import AdvisorService, ModelRegistry, Objective

    service = AdvisorService.from_registry(
        ModelRegistry(args.registry), args.name, _serving_freqs(args),
        version=args.version, mem_freqs_mhz=_mem_freq_list(args),
    )
    objective = Objective.from_kind(
        args.objective, deadline_s=args.deadline_s, power_w=args.power_w
    )
    features = _floats(args.features)
    advice = service.advise(features, objective)
    manifest = service.manifest
    if args.format == "json":
        print(
            json.dumps(
                {
                    "model": manifest.as_dict(),
                    "objective": objective.describe(),
                    "features": features,
                    "advice": advice.as_dict(),
                },
                indent=2,
            )
        )
        return 0
    print(f"model: {manifest.ref} ({manifest.app}), objective: {objective.describe()}")
    front = "on" if advice.on_pareto_front else "off"
    print(f"advice: {_advice_line(advice, f', {front} the Pareto front')}")
    return 0


def _render_fleet_summary(summary, title: str) -> str:
    lines = [
        title,
        f"  jobs               : {summary['jobs']} "
        f"({summary['jobs_completed']} completed)",
        f"  SLA attainment     : {summary['sla_attainment']:.1%} "
        f"({summary['sla_met']}/{summary['jobs']} met deadline)",
        f"  fleet energy       : {summary['total_energy_j'] / 1e3:.3f} kJ "
        f"(jobs {summary['job_energy_j'] / 1e3:.3f} kJ)",
        f"  busy fraction      : {summary['busy_fraction']:.1%}",
        f"  failures/restarts  : {summary['gpu_failures']} / {summary['job_restarts']}",
        f"  max temp proxy     : {summary['max_temp_c']:.1f} C, "
        f"peak queue {summary['peak_queue']}",
    ]
    return "\n".join(lines)


def _run_fleet(spec, mode: str = "vectorized", baseline: bool = False, fmt: str = "text") -> int:
    """Simulate a fleet spec and print the result (``repro fleet`` and ``repro run``)."""
    import json

    from repro.fleet import compare_to_static, resolve_fleet_model, simulate_fleet

    if fmt == "text":
        print(spec.describe())
    model, _manifest = resolve_fleet_model(spec)
    result = simulate_fleet(spec, model, mode=mode)
    summary = result.summary()
    comparison = compare_to_static(spec, model, advised_result=result) if baseline else None
    if fmt == "json":
        payload = {
            "spec": spec.as_record(),
            "fingerprint": spec.fingerprint(),
            "mode": mode,
            "summary": summary,
        }
        if comparison is not None:
            payload["baseline"] = comparison
        print(json.dumps(payload, indent=2))
        return 0
    print(_render_fleet_summary(summary, f"fleet summary ({mode})"))
    if comparison is not None:
        print(
            _render_fleet_summary(
                comparison["static"],
                f"static-clock baseline ({comparison['static_freq_mhz']} MHz)",
            )
        )
        print(
            f"advice saves {comparison['energy_saved_j'] / 1e3:.3f} kJ "
            f"({comparison['energy_saved_pct']:.1f}%) at SLA delta "
            f"{comparison['sla_delta']:+.4f}"
        )
    return 0


def cmd_fleet(args) -> int:
    import pathlib

    from repro.specs import FleetSpec

    path = pathlib.Path(args.spec)
    record = _lint_spec_file(path)
    if record is None:
        return 1
    spec = FleetSpec.from_record(record, file=str(path), base_dir=str(path.parent))
    overrides = {
        key: value
        for key, value in (
            ("gpus", args.gpus),
            ("ticks", args.ticks),
            ("seed", args.seed),
            ("policy", args.policy),
            ("static_freq_mhz", args.static_freq),
        )
        if value is not None
    }
    if overrides:
        # Overrides pass through the fleet schema like the file did, so
        # a bad value is a SPEC002 diagnostic naming the field.
        spec = FleetSpec.from_record(
            {**spec.as_record(), **overrides}, file=str(path), base_dir=spec.base_dir
        )
    return _run_fleet(spec, args.mode, args.baseline, args.format)


def cmd_serve(args) -> int:
    from repro.errors import ServingError
    from repro.serving import (
        AdvisorService,
        ModelRegistry,
        Objective,
        run_load,
        run_load_multiprocess,
        synthetic_requests,
    )

    for flag, value in (("--workers", args.workers), ("--processes", args.processes)):
        if value < 1:
            raise ServingError(f"{flag} must be >= 1, got {value}")
    freqs = _serving_freqs(args)
    # One set of service options for the in-process and the worker advisors.
    options = dict(
        version=args.version, max_batch=args.batch_size,
        cache_size=args.cache_size, cache_shards=args.cache_shards,
    )
    service = AdvisorService.from_registry(
        ModelRegistry(args.registry), args.name, freqs, **options
    )
    manifest = service.manifest
    if args.features:
        base = _floats(args.features)
    else:
        base = [64.0] * len(manifest.feature_names)
    requests = synthetic_requests(
        base, args.requests, pool_size=args.pool, objectives=[Objective.tradeoff()],
        seed=args.seed,
    )
    workers = f"{args.workers} worker(s)"
    if args.processes > 1:
        workers = f"{args.processes} process(es) x {workers}"
    print(f"serving {len(requests)} requests to {manifest.ref} with {workers} ...")
    if args.processes > 1:
        run_load_multiprocess(
            args.registry, args.name, requests, freqs,
            processes=args.processes, workers_per_process=args.workers, **options,
        )
        print(
            f"served {len(requests)} requests across {args.processes} processes "
            "(per-process stats stay in the workers)"
        )
        return 0
    run_load(service, requests, workers=args.workers)
    print(service.report())
    return 0


def _render_lifecycle_result(result) -> str:
    """Human-readable lifecycle run summary (epoch table + decisions)."""
    lines = ["lifecycle result"]
    lines.append(
        f"  {'epoch':>5} {'scale':>6} {'mape %':>8} {'served':>7} "
        f"{'event':>10} promoted"
    )
    for row in result.epochs:
        mape = row["rolling_mape"]
        mape_s = f"{mape:8.2f}" if mape == mape else "       -"
        lines.append(
            f"  {row['epoch']:>5} {row['work_scale']:>6g} {mape_s} "
            f"{'v' + str(row['served_version']):>7} "
            f"{row['event'] or '-':>10} {'yes' if row['promoted'] else '-'}"
        )
    for d in result.decisions:
        verdict = "promoted" if d.promoted else "rejected"
        lines.append(
            f"  canary: v{d.candidate_version} vs v{d.incumbent_version} -> "
            f"{verdict} ({d.reason})"
        )
    state = result.ledger_state
    quarantined = (
        ", ".join(f"v{v}" for v in state["quarantined"]) or "none"
    )
    lines.append(
        f"  ledger: active v{state['active_version']}, "
        f"{state['entries']} entr{'y' if state['entries'] == 1 else 'ies'}, "
        f"quarantined {quarantined}"
    )
    return "\n".join(lines)


def cmd_lifecycle(args) -> int:
    import json

    from repro.lifecycle import CanaryController
    from repro.serving import ModelRegistry

    if args.lifecycle_command == "retrain":
        from repro.lifecycle import build_retrainer, build_workload, retrain_candidate
        from repro.specs import LifecycleSpec
        from repro.specs.scenario import resolve_ref

        spec = LifecycleSpec.load(args.spec)
        print(spec.describe())
        registry = ModelRegistry(resolve_ref(spec.registry, spec.base_dir))
        generation, manifest = retrain_candidate(
            build_retrainer(spec, registry),
            CanaryController(registry, spec.model_name),
            build_workload(spec),
        )
        print(
            f"registered {manifest.ref} "
            f"(train fingerprint {manifest.train_fingerprint[:16]}...)"
        )
        if generation > 0:
            print(
                "candidate is NOT serving: promote it through the canary "
                "gate (lifecycle loop) or `repro lifecycle promote`"
            )
        return 0

    registry = ModelRegistry(args.root)
    controller = CanaryController(registry, args.name)
    if args.lifecycle_command == "status":
        state = controller.ledger.replay()
        versions = [m for m in registry.list() if m.name == args.name]
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "name": args.name,
                        "versions": [m.as_dict() for m in versions],
                        "active_version": controller.active_version(),
                        "ledger": state.as_record(),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        active = controller.active_version()
        print(f"lifecycle status for {args.name!r} (registry {registry.root})")
        if not versions:
            print("  no versions registered")
            return 0
        quarantined = set(state.quarantined)
        for m in versions:
            marks = []
            if m.version == active:
                marks.append("ACTIVE")
            if m.version in quarantined:
                marks.append("QUARANTINED")
            suffix = f"  [{', '.join(marks)}]" if marks else ""
            print(f"  v{m.version}  sha256 {m.artifact_sha256[:16]}...{suffix}")
        print(
            f"  ledger: {state.entries} entr"
            f"{'y' if state.entries == 1 else 'ies'}, previous "
            f"{'v' + str(state.previous_version) if state.previous_version else 'none'}"
        )
        return 0
    if args.lifecycle_command == "promote":
        version = controller.promote_to(args.to_version)
        print(f"promoted {args.name} to v{version} (manual, no shadow evidence)")
        return 0
    # rollback
    version = controller.rollback(args.to_version)
    print(f"rolled {args.name} back to v{version}")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis import has_errors, render_json, render_text, run_lint

    if args.paths:
        paths = args.paths
    else:
        # default: the installed repro package tree itself
        from pathlib import Path

        import repro

        paths = [str(Path(repro.__file__).parent)]
    select = args.select.split(",") if args.select else None
    diagnostics = run_lint(
        paths, select=select, with_self_check=not args.no_self_check
    )
    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics))
    return 1 if has_errors(diagnostics) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.experiments.workloads import APP_KINDS
    from repro.synergy.api import BUILTIN_DEVICES
    from repro.synergy.tuning import TuningMetric

    def sweep_flags(p, reps, trees=None, freqs_help=None, seed_help=None):
        """``--device/--freqs/--reps/--seed``: the sweep a command runs.

        A training command's ``--trees`` goes before ``--seed``, where its
        ``--help`` has always listed it.
        """
        p.add_argument("--device", choices=BUILTIN_DEVICES, default="v100")
        p.add_argument("--freqs", type=int, default=16, help=freqs_help)
        p.add_argument("--reps", type=int, default=reps)
        if trees is not None:
            p.add_argument("--trees", type=int, default=trees)
        p.add_argument("--seed", type=int, default=42, help=seed_help)

    def serving_grid_flags(p):
        """``--freq-min/--freq-max/--freq-points``: the advised frequency grid."""
        p.add_argument("--freq-min", type=float, default=135.0)
        p.add_argument("--freq-max", type=float, default=1597.0)
        p.add_argument("--freq-points", type=int, default=25)

    def served_model_flags(p):
        """``--registry/--name/--version``: the registered model to serve."""
        p.add_argument("--registry", required=True, help="registry directory")
        p.add_argument("--name", required=True, help="registered model name")
        p.add_argument("--version", type=int, help="model version (default: latest)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Domain-specific GPU energy modeling (SC-W 2023 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="DVFS-sweep an application")
    p.add_argument("--app", choices=APP_KINDS, required=True)
    p.add_argument("--ligands", type=int, default=10000, help="LiGen: ligand count")
    p.add_argument("--atoms", type=int, default=89, help="LiGen: atoms per ligand")
    p.add_argument("--fragments", type=int, default=20, help="LiGen: fragments per ligand")
    p.add_argument(
        "--grid", default=None,
        help="Cronos: grid as NXxNYxNZ (default 160x64x64); "
        "MHD: grid as NRxNTHETAxNZ (default 24x48x32)",
    )
    p.add_argument("--steps", type=int, default=25, help="Cronos/MHD: time steps")
    sweep_flags(
        p, reps=5, freqs_help="frequency bins to sweep (default 16; omit for all with 0)"
    )
    p.add_argument("--max-rows", type=int, default=40)
    p.add_argument("--output", help="save the sweep as JSON")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("train", help="build a campaign and train a domain model")
    p.add_argument("--app", choices=APP_KINDS, required=True)
    sweep_flags(p, reps=3, trees=30)
    p.add_argument("--output", required=True, help="model .npz path")
    p.add_argument(
        "--mem-freqs",
        help="MHD only: comma-separated memory clocks (MHz) for a 2-D "
        "(core x memory) training sweep; adds the f_mem_mhz feature column",
    )
    p.add_argument("--dataset-output", help="also save the training dataset (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "campaign",
        help="run a characterization campaign through the cached engine",
    )
    p.add_argument("--app", choices=APP_KINDS, required=True)
    sweep_flags(
        p, reps=5, freqs_help="frequency bins to sweep (0 = all)",
        seed_help="campaign seed (per-task seeds derive from it)",
    )
    p.add_argument(
        "--cache-dir", default=".repro-cache",
        help="persistent result cache directory (default .repro-cache)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this run",
    )
    p.add_argument(
        "--quick", action="store_true", help="reduced input grid (~seconds)"
    )
    p.add_argument(
        "--inject", metavar="PLAN.json",
        help="deterministic fault-injection plan (chaos testing; "
        "see docs/fault-injection.md)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per sweep point under --inject (default 2)",
    )
    p.add_argument(
        "--replay", action=argparse.BooleanOptionalAction, default=True,
        help="record each app once and replay the sweep batched "
        "(bit-identical to --no-replay, just faster; see docs/perf.md)",
    )
    p.add_argument(
        "--mem-freqs",
        help="MHD only: comma-separated memory clocks (MHz) to sweep "
        "alongside the core table (2-D DVFS)",
    )
    p.add_argument("--dataset-output", help="save the training dataset (JSON)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "run",
        help="validate a scenario/campaign spec file and execute it end to end",
    )
    p.add_argument(
        "scenario",
        help="scenario or campaign spec JSON (see docs/scenario-specs.md)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="validate only; exit nonzero on SPEC errors without running",
    )
    p.add_argument(
        "--dataset-output",
        help="save the training dataset here (overrides the spec's outputs.dataset)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="regenerate a headline experiment")
    p.add_argument(
        "--experiment", choices=("fig13-cronos", "fig13-ligen"), required=True
    )
    sweep_flags(p, reps=3, trees=20)
    p.add_argument(
        "--quick", action="store_true",
        help="reduced micro-benchmark suite and input grid (~1 min)",
    )
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "registry", help="manage the versioned, digest-validated model registry"
    )
    p.set_defaults(func=cmd_registry)
    reg_sub = p.add_subparsers(dest="registry_command", required=True)

    pr = reg_sub.add_parser("add", help="register a trained model as a new version")
    pr.add_argument("--root", required=True, help="registry directory")
    pr.add_argument("--model", required=True, help="trained model .npz path")
    pr.add_argument("--name", required=True, help="model name (letters/digits/._-)")
    pr.add_argument("--app", default="unknown", help="application the model covers")
    pr.add_argument(
        "--device", choices=BUILTIN_DEVICES,
        help="record this device's spec signature in the manifest",
    )
    pr.add_argument(
        "--train-fingerprint", help="opaque training-campaign fingerprint to record"
    )

    pr = reg_sub.add_parser("list", help="list registered model versions")
    pr.add_argument("--root", required=True, help="registry directory")
    pr.add_argument("--format", choices=("text", "json"), default="text")

    pr = reg_sub.add_parser("verify", help="integrity-check registered artifacts")
    pr.add_argument("--root", required=True, help="registry directory")
    pr.add_argument("--name", help="verify only this model (default: all)")
    pr.add_argument("--version", type=int, help="verify only this version")

    p = sub.add_parser("advise", help="one frequency-advice request from a registered model")
    served_model_flags(p)
    p.add_argument(
        "--features", required=True,
        help="comma-separated input features (model order)",
    )
    p.add_argument(
        "--objective",
        choices=("tradeoff", "min_energy_deadline", "max_speedup_power"),
        default="tradeoff",
    )
    p.add_argument("--deadline-s", type=float, help="deadline for min_energy_deadline")
    p.add_argument("--power-w", type=float, help="power cap for max_speedup_power")
    p.add_argument(
        "--mem-freqs",
        help="comma-separated candidate memory clocks (MHz); the model's "
        "last feature must be f_mem_mhz and the advice becomes a "
        "(core, memory) frequency pair",
    )
    serving_grid_flags(p)
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="json emits the manifest, objective, and advice machine-readably",
    )
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser(
        "fleet",
        help="simulate a GPU fleet under deadline-aware DVFS (docs/fleet.md)",
    )
    p.add_argument("spec", help="fleet spec JSON (format repro.fleet)")
    p.add_argument(
        "--mode", choices=("vectorized", "reference"), default="vectorized",
        help="tick engine: SoA vectorized (default) or the naive "
        "per-object reference loop (bit-identical, ~10x+ slower)",
    )
    p.add_argument(
        "--baseline", action="store_true",
        help="also run the static-clock baseline fleet and report the "
        "energy advice saves at the resulting SLA delta",
    )
    p.add_argument("--gpus", type=int, help="override the spec's GPU count")
    p.add_argument("--ticks", type=int, help="override the spec's tick count")
    p.add_argument("--seed", type=int, help="override the spec's seed")
    p.add_argument(
        "--policy", choices=("advised", "static"),
        help="override the spec's placement policy",
    )
    p.add_argument(
        "--static-freq", type=float,
        help="static-clock frequency in MHz (with --policy static or --baseline)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "serve", help="drive the advisor with a synthetic load and print stats"
    )
    served_model_flags(p)
    p.add_argument("--requests", type=int, default=200, help="request count")
    p.add_argument("--workers", type=int, default=4, help="client threads (per process)")
    p.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes (>1 drives independent advisor processes past the GIL)",
    )
    p.add_argument("--pool", type=int, default=8, help="distinct feature tuples in the stream")
    p.add_argument("--seed", type=int, default=0, help="request-stream seed")
    p.add_argument("--batch-size", type=int, default=16, help="micro-batch cap")
    p.add_argument("--cache-size", type=int, default=2048, help="LRU advice-cache capacity")
    p.add_argument(
        "--cache-shards",
        type=int,
        default=8,
        help="advice-cache lock shards (clamped down for small caches)",
    )
    p.add_argument(
        "--features",
        help="base feature tuple for the synthetic pool (default: 64.0 per feature)",
    )
    serving_grid_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "lifecycle",
        help="drift detection, shadow retraining and canary rollout",
    )
    p.set_defaults(func=cmd_lifecycle)
    life_sub = p.add_subparsers(dest="lifecycle_command", required=True)

    pl = life_sub.add_parser(
        "status", help="registered versions, active pointer, ledger state"
    )
    pl.add_argument("--root", required=True, help="registry directory")
    pl.add_argument("--name", required=True, help="registered model name")
    pl.add_argument("--format", choices=("text", "json"), default="text")

    pl = life_sub.add_parser(
        "retrain", help="train + register one candidate from a lifecycle spec"
    )
    pl.add_argument("spec", help="lifecycle spec JSON (format repro.lifecycle)")

    pl = life_sub.add_parser(
        "promote", help="manually promote a version (records null evidence)"
    )
    pl.add_argument("--root", required=True, help="registry directory")
    pl.add_argument("--name", required=True, help="registered model name")
    pl.add_argument(
        "--to-version", type=int, required=True, help="version to promote"
    )

    pl = life_sub.add_parser(
        "rollback", help="restore a prior version as the active pointer"
    )
    pl.add_argument("--root", required=True, help="registry directory")
    pl.add_argument("--name", required=True, help="registered model name")
    pl.add_argument(
        "--to-version",
        type=int,
        help="target version (default: the ledger's recorded previous)",
    )

    p = sub.add_parser("lint", help="statically verify repo invariants")
    p.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--select",
        help="comma-separated rule ids or families to run "
        "(e.g. DET001,HW001 or SPEC,HW); default all",
    )
    p.add_argument(
        "--no-self-check", action="store_true",
        help="skip the built-in device-spec / kernel-IR verification",
    )
    p.set_defaults(func=cmd_lint)

    for name, fn, extra in (
        ("predict", cmd_predict, False),
        ("tune", cmd_tune, True),
    ):
        p = sub.add_parser(name, help=f"{name} from a saved model")
        p.add_argument("--model", required=True, help="model .npz path")
        p.add_argument(
            "--features",
            required=True,
            help="comma-separated input features (model order, e.g. LiGen: ligands,fragments,atoms)",
        )
        serving_grid_flags(p)
        if extra:
            p.add_argument(
                "--metric", choices=[m.value for m in TuningMetric], default="min_energy"
            )
            p.add_argument("--max-slowdown", type=float, default=0.10)
            p.add_argument("--energy-target", type=float, default=None)
        p.set_defaults(func=fn)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "freqs", None) == 0:
        args.freqs = None
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
