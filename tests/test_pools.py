"""Unit tests for the state-indexed instance pools."""

import pytest

from repro.hardware import HardwareConfig
from repro.simulator import Cluster, InstancePool, Instance, InstanceState

CPU2 = HardwareConfig.cpu(2)
CPU4 = HardwareConfig.cpu(4)
GPU = HardwareConfig.gpu(0.5)


def make_instance(config=CPU2, cluster=None):
    cluster = cluster or Cluster.build(n_machines=1)
    placement = cluster.try_allocate(config)
    assert placement is not None
    return Instance(
        function="f",
        config=config,
        placement=placement,
        launched_at=0.0,
        init_duration=1.0,
    )


def warm(inst, now=1.0):
    inst.mark_warm(now)
    return inst


class TestLifecycleIndexing:
    def test_add_requires_initializing(self):
        pool = InstancePool()
        inst = warm(make_instance())
        with pytest.raises(ValueError):
            pool.add(inst)

    def test_counts_follow_transitions(self):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=1)
        inst = make_instance(cluster=cluster)
        pool.add(inst)
        assert pool.initializing_count() == 1
        assert pool.live_count() == 1
        assert pool.idle_count() == 0

        warm(inst)
        pool.transition(inst, InstanceState.INITIALIZING)
        assert pool.initializing_count() == 0
        assert pool.idle_count() == 1
        assert pool.warm_count() == 1

        inst.mark_busy(2.0, batch=1)
        pool.transition(inst, InstanceState.IDLE)
        assert pool.idle_count() == 0
        assert pool.warm_count() == 1

        inst.mark_idle(3.0, busy_time=1.0)
        pool.transition(inst, InstanceState.BUSY)
        assert pool.idle_count() == 1

        prev = inst.state
        inst.mark_terminated(4.0)
        pool.remove(inst, prev)
        assert pool.live_count() == 0
        assert len(pool) == 0

    def test_per_config_counts(self):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=1)
        a = make_instance(CPU2, cluster)
        b = make_instance(CPU4, cluster)
        pool.add(a)
        pool.add(b)
        assert pool.live_count(CPU2) == 1
        assert pool.live_count(CPU4) == 1
        assert pool.live_count(GPU) == 0
        assert pool.uncommitted_count(CPU2) == 1
        assert pool.uncommitted_count() == 2

    def test_backend_live_counts(self):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=1)
        pool.add(make_instance(CPU2, cluster))
        pool.add(make_instance(GPU, cluster))
        assert pool.backend_live_counts() == (1, 1)


class TestPickOrder:
    def make_idle_fleet(self, configs):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=2)
        fleet = []
        for cfg in configs:
            inst = make_instance(cfg, cluster)
            pool.add(inst)
            warm(inst)
            pool.transition(inst, InstanceState.INITIALIZING)
            fleet.append(inst)
        return pool, fleet

    def test_prefers_matching_config_in_launch_order(self):
        pool, fleet = self.make_idle_fleet([CPU4, CPU2, CPU2])
        assert pool.pick_idle(CPU2) is fleet[1]

    def test_falls_back_to_oldest_any_config(self):
        pool, fleet = self.make_idle_fleet([CPU4, CPU4])
        assert pool.pick_idle(CPU2) is fleet[0]

    def test_pick_none_when_no_idle(self):
        pool = InstancePool()
        assert pool.pick_idle(CPU2) is None

    def test_rebusied_instance_keeps_fifo_rank(self):
        """An instance cycling busy->idle is picked by id, not re-insertion."""
        pool, fleet = self.make_idle_fleet([CPU2, CPU2])
        first, second = fleet
        first.mark_busy(2.0, batch=1)
        pool.transition(first, InstanceState.IDLE)
        first.mark_idle(3.0, busy_time=1.0)
        pool.transition(first, InstanceState.BUSY)
        # first went idle *after* second, but has the lower id
        assert pool.pick_idle(CPU2) is first

    def test_idle_sorted_ascending_ids(self):
        pool, fleet = self.make_idle_fleet([CPU2, CPU4, CPU2])
        assert pool.idle_sorted() == fleet
        assert pool.idle_sorted(config=CPU2) == [fleet[0], fleet[2]]

    def test_iteration_in_launch_order(self):
        pool, fleet = self.make_idle_fleet([CPU2, CPU4])
        assert list(pool) == fleet


class TestIdleCountByConfig:
    def recount(self, pool, config):
        return sum(
            1
            for inst in pool
            if inst.state is InstanceState.IDLE and inst.config == config
        )

    def test_matches_a_recount_through_the_lifecycle(self):
        pool = InstancePool()
        cluster = Cluster.build(n_machines=2)
        fleet = [make_instance(cfg, cluster) for cfg in (CPU2, CPU4, CPU2, GPU)]

        def check():
            for cfg in (CPU2, CPU4, GPU):
                assert pool.idle_count(cfg) == self.recount(pool, cfg)
            assert pool.idle_count() == sum(
                pool.idle_count(cfg) for cfg in (CPU2, CPU4, GPU)
            )

        check()  # no instance of any configuration yet
        for inst in fleet:
            pool.add(inst)
            check()
        for inst in fleet:
            warm(inst)
            pool.transition(inst, InstanceState.INITIALIZING)
            check()
        assert pool.idle_count(CPU2) == 2

        fleet[0].mark_busy(2.0, batch=1)
        pool.transition(fleet[0], InstanceState.IDLE)
        check()
        assert pool.idle_count(CPU2) == 1

        fleet[0].mark_idle(3.0, busy_time=1.0)
        pool.transition(fleet[0], InstanceState.BUSY)
        check()

        for inst in fleet[1:3]:
            prev = inst.state
            inst.mark_terminated(4.0)
            pool.remove(inst, prev)
            check()
        assert pool.idle_count(CPU2) == 1
        assert pool.idle_count(CPU4) == 0
