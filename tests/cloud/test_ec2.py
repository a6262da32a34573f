"""Unit tests for the simulated EC2 instance manager."""

import pytest

from repro.errors import ConfigError, InstanceStateError, NoSuchInstance


def test_launch_known_types(cloud):
    large = cloud.ec2.launch("l")
    extra = cloud.ec2.launch("xl")
    assert large.itype.cores == 2
    assert extra.itype.cores == 4
    assert large.itype.total_ecu == 4.0
    assert extra.itype.total_ecu == 8.0


def test_unknown_type_rejected(cloud):
    with pytest.raises(ConfigError):
        cloud.ec2.launch("xxl")


def test_run_charges_time_by_ecu(cloud):
    instance = cloud.ec2.launch("l")  # 2 ECU per core

    def work():
        yield from instance.run(8.0)
        return cloud.env.now
    assert cloud.env.run_process(work()) == pytest.approx(4.0)


def test_cores_limit_parallelism(cloud):
    instance = cloud.ec2.launch("l")  # 2 cores
    env = cloud.env
    finishes = []

    def work():
        yield from instance.run(4.0)
        finishes.append(env.now)

    for _ in range(4):
        env.process(work())
    env.run()
    assert finishes == pytest.approx([2.0, 2.0, 4.0, 4.0])


def test_xl_twice_as_parallel_as_l(cloud):
    env = cloud.env

    def fanout(instance, tasks):
        start = env.now
        procs = [env.process(instance.run(4.0)) for _ in range(tasks)]
        for proc in procs:
            yield proc
        return env.now - start

    l_time = env.run_process(fanout(cloud.ec2.launch("l"), 8))
    xl_time = env.run_process(fanout(cloud.ec2.launch("xl"), 8))
    assert l_time == pytest.approx(2 * xl_time)


def test_stopped_instance_rejects_work(cloud):
    instance = cloud.ec2.launch("l")
    cloud.ec2.stop(instance)

    def work():
        yield from instance.run(1.0)
    with pytest.raises(InstanceStateError):
        cloud.env.run_process(work())


def test_double_stop_rejected(cloud):
    instance = cloud.ec2.launch("l")
    cloud.ec2.stop(instance)
    with pytest.raises(InstanceStateError):
        cloud.ec2.stop(instance)


def test_unknown_instance_lookup(cloud):
    with pytest.raises(NoSuchInstance):
        cloud.ec2.get("i-99999999")


def test_uptime_and_billing(cloud):
    env = cloud.env
    instance = cloud.ec2.launch("l")

    def work():
        yield env.timeout(1800.0)  # half an hour
    env.run_process(work())
    cloud.ec2.stop(instance)
    assert instance.uptime_seconds == pytest.approx(1800.0)
    assert instance.uptime_hours == pytest.approx(0.5)
    assert instance.billable_hours == 1  # AWS ceils to whole hours


def test_billable_hours_exact_boundary(cloud):
    env = cloud.env
    instance = cloud.ec2.launch("l")

    def work():
        yield env.timeout(7200.0)
    env.run_process(work())
    cloud.ec2.stop(instance)
    assert instance.billable_hours == 2


def test_launch_fleet_and_filters(cloud):
    for type_name in ("l", "l", "l", "xl", "xl"):
        cloud.ec2.launch(type_name)
    assert len(cloud.ec2.instances()) == 5
    types = [instance.itype.name for instance in cloud.ec2.instances()]
    assert (types.count("l"), types.count("xl")) == (3, 2)


def test_busy_accounting(cloud):
    instance = cloud.ec2.launch("xl")

    def work():
        yield from instance.run(10.0)
    cloud.env.run_process(work())
    assert instance.busy_ecu_seconds == pytest.approx(10.0)
