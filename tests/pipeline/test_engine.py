"""Pipeline construction, stage ordering, introspection, and wiring."""

from dataclasses import replace

import pytest

from repro.pipeline import (
    ArtifactCache,
    FlowConfig,
    MissingArtifactError,
    Pipeline,
    PipelineWiringError,
    PowerManageStage,
    ReportStage,
    ScheduleStage,
    Stage,
    StageError,
    ValidateStage,
    default_stages,
)


class TestWiring:
    def test_default_stage_order(self):
        assert Pipeline().stage_names == (
            "validate", "analyze", "power_manage", "schedule",
            "allocate", "elaborate", "verify", "report")

    def test_every_requirement_is_provided_upstream(self):
        provided = set()
        for stage in default_stages():
            assert set(stage.requires) <= provided, stage.name
            provided |= set(stage.provides)

    def test_out_of_order_stages_rejected(self):
        with pytest.raises(PipelineWiringError, match="requires"):
            Pipeline([ScheduleStage(), PowerManageStage()])

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineWiringError, match="duplicate"):
            Pipeline([ValidateStage(), ValidateStage()])

    def test_unnamed_stage_rejected(self):
        with pytest.raises(PipelineWiringError, match="no name"):
            Pipeline([Stage()])

    def test_stage_lookup_by_name(self):
        pipeline = Pipeline()
        assert pipeline.stage("schedule").provides == \
            ("schedule", "allocation", "pipelined_gating")
        with pytest.raises(KeyError):
            pipeline.stage("nonesuch")

    def test_describe_lists_every_stage(self):
        text = Pipeline().describe()
        for name in Pipeline().stage_names:
            assert name in text


class TestRun:
    def test_run_produces_result(self, dealer_graph):
        result = Pipeline().run(dealer_graph, FlowConfig(n_steps=6))
        assert result.design.schedule.n_steps == 6
        assert result.design.binding.units
        assert result.pm.managed_count > 0

    def test_run_context_exposes_all_artifacts(self, gcd_graph):
        ctx = Pipeline().run_context(gcd_graph, FlowConfig(n_steps=7))
        for name in ("validated", "stats", "pm", "schedule", "allocation",
                     "binding", "registers", "design", "verified",
                     "result"):
            assert ctx.has(name), name
        assert ctx.produced_by["pm"] == "power_manage"
        assert set(ctx.stage_seconds) == set(Pipeline().stage_names)

    def test_missing_artifact_error_names_available(self, gcd_graph):
        ctx = Pipeline().run_context(gcd_graph, FlowConfig(n_steps=7))
        with pytest.raises(MissingArtifactError, match="available"):
            ctx.get("nonesuch")

    def test_unset_n_steps_rejected(self, gcd_graph):
        with pytest.raises(ValueError, match="n_steps"):
            Pipeline().run(gcd_graph, FlowConfig())

    def test_truncated_pipeline_has_no_result(self, gcd_graph):
        front = Pipeline(list(default_stages())[:-1])
        with pytest.raises(StageError, match="result"):
            front.run(gcd_graph, FlowConfig(n_steps=7))
        ctx = front.run_context(gcd_graph, FlowConfig(n_steps=7))
        assert ctx.has("design") and not ctx.has("result")

    def test_custom_stage_composes(self, gcd_graph):
        class CountMuxesStage(Stage):
            name = "count_muxes"
            requires = ("pm",)
            provides = ("mux_count",)

            def run(self, ctx):
                return {"mux_count": ctx.get("pm").managed_count}

        stages = list(default_stages())
        stages.insert(3, CountMuxesStage())
        ctx = Pipeline(stages).run_context(gcd_graph, FlowConfig(n_steps=7))
        assert ctx.get("mux_count") == ctx.get("pm").managed_count

    def test_stage_breaking_contract_detected(self, gcd_graph):
        class LyingStage(Stage):
            name = "liar"
            provides = ("promised",)

            def run(self, ctx):
                return {"delivered": 1}

        with pytest.raises(StageError, match="declared"):
            Pipeline([LyingStage()]).run_context(
                gcd_graph, FlowConfig(n_steps=7))

    def test_verify_stage_honours_flag(self, gcd_graph):
        on = Pipeline().run_context(gcd_graph,
                                    FlowConfig(n_steps=7, verify=True))
        off = Pipeline().run_context(gcd_graph, FlowConfig(n_steps=7))
        assert on.get("verified") is True
        assert off.get("verified") is False

    def test_run_many_shares_one_cache(self, dealer_graph, gcd_graph):
        pipeline = Pipeline(cache=ArtifactCache())
        jobs = [(dealer_graph, FlowConfig(n_steps=6)),
                (gcd_graph, FlowConfig(n_steps=7)),
                (dealer_graph, FlowConfig(n_steps=6))]
        contexts = pipeline.run_many(jobs)
        assert len(contexts) == 3
        assert not contexts[0].cache_hits
        assert contexts[2].cache_hits  # repeat of job 0


class TestGivenArtifacts:
    def test_a_given_pm_skips_the_pass_and_the_cache(self, gcd_graph):
        config = FlowConfig(n_steps=7)
        pm = Pipeline().run_context(gcd_graph, config).get("pm")
        cache = ArtifactCache()
        ctx = Pipeline(cache=cache).run_context(gcd_graph, config,
                                                given={"pm": pm})
        assert ctx.get("pm") is pm
        assert ctx.produced_by["pm"] == "power_manage"
        assert ctx.given == ["power_manage"]
        assert "power_manage" not in ctx.cache_hits + ctx.cache_misses
        assert "power_manage" not in ctx.stage_seconds
        assert not any(key[0] == "power_manage" for key in cache._store)
        assert "<- power_manage (given)" in ctx.summary()
        plain = Pipeline().run(gcd_graph, config)
        assert ctx.result.design.area() == plain.design.area()

    def test_a_stage_given_only_some_artifacts_is_an_error(self,
                                                           gcd_graph):
        ctx = Pipeline().run_context(gcd_graph, FlowConfig(n_steps=7))
        with pytest.raises(StageError, match="only"):
            Pipeline().run_context(gcd_graph, FlowConfig(n_steps=7),
                                   given={"binding": ctx.get("binding")})

    def test_an_artifact_no_stage_provides_is_an_error(self, gcd_graph):
        with pytest.raises(StageError, match="no stage provides"):
            Pipeline().run(gcd_graph, FlowConfig(n_steps=7),
                           given={"nonesuch": 1})


class TestFlowConfig:
    def test_baseline_disables_pm_only(self):
        config = FlowConfig(n_steps=6, width=16, mutex_sharing=True)
        base = config.baseline()
        assert not base.pm.enabled
        assert base.width == 16 and base.mutex_sharing
        assert base.n_steps == 6

    def test_cache_key_tracks_only_named_fields(self):
        a = FlowConfig(n_steps=6, width=8)
        b = FlowConfig(n_steps=6, width=16)
        fields = ("n_steps", "pm")
        assert a.cache_key(fields) == b.cache_key(fields)
        assert a.cache_key(("width",)) != b.cache_key(("width",))

    def test_describe_mentions_scheduler(self):
        assert "scheduler='exact'" in \
            FlowConfig(n_steps=3, scheduler="exact").describe()

    @pytest.mark.parametrize("width", [0, -2, True, 8.5, "8", None])
    def test_width_must_be_a_positive_int(self, width):
        """A bad width used to construct, synthesize (gcd at width 0 had
        area 292) and fail later as a bare 'negative shift count'."""
        with pytest.raises(ValueError, match="width"):
            FlowConfig(n_steps=7, width=width)
        with pytest.raises(ValueError, match="width"):
            replace(FlowConfig(n_steps=7), width=width)

    def test_explore_rejects_a_zero_width_before_running(self):
        from repro.pipeline import explore

        with pytest.raises(ValueError, match="width"):
            explore(["gcd"], [7], configs=[FlowConfig(width=0)],
                    sim_vectors=16)

    def test_one_bit_datapath_synthesizes_and_verifies(self, gcd_graph):
        result = Pipeline().run(
            gcd_graph, FlowConfig(n_steps=7, width=1, verify=True))
        assert result.design.width == 1
