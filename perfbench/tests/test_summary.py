import statistics

import pytest

from perfbench.run import (
    REFERENCE_S,
    Laps,
    Pass,
    best_jobs,
    host_factor,
    reference_s,
    summarize,
)


def test_single_value_is_its_own_median_and_quartiles():
    assert summarize([2.5]) == (2.5, 2.5, 2.5)


def test_quartiles_match_statistics_quantiles():
    values = [9.0, 1.0, 4.0, 7.0, 3.0, 10.0, 2.0, 8.0, 6.0, 5.0]
    median, q1, q3 = summarize(values)
    assert median == 5.5
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert q1 < median < q3


def test_two_values():
    median, q1, q3 = summarize([1.0, 3.0])
    assert median == 2.0
    assert q1 <= median <= q3


def test_empty_sample_is_an_error():
    with pytest.raises(ValueError):
        summarize([])


def test_best_jobs_take_each_step_at_its_fastest():
    passes = [
        Pass("pass1", 6.0, {("a", "x"): 1.0, ("a", "end"): 1.0,
                            ("b", "end"): 4.0}, [], None),
        Pass("pass2", 6.0, {("a", "x"): 2.0, ("a", "end"): 0.5,
                            ("b", "end"): 3.5}, [], None),
    ]
    assert best_jobs(passes) == {"a": 1.5, "b": 3.5}
    assert sum(best_jobs(passes[:1]).values()) == passes[0].seconds


def test_a_step_missing_from_a_pass_uses_the_passes_that_ran_it():
    passes = [
        Pass("pass1", 1.0, {("a", "x"): 1.0}, [], None),
        Pass("pass2", 5.0, {("a", "x"): 2.0, ("a", "end"): 3.0}, [], None),
    ]
    assert best_jobs(passes) == {"a": 4.0}


def test_laps_split_a_job_into_steps():
    lap = Laps("fir")
    lap("profile")
    lap("end")
    assert set(lap.times) == {("fir", "profile"), ("fir", "end")}
    assert all(seconds >= 0 for seconds in lap.times.values())


def test_host_factor_is_the_median_reference_sample_over_its_nominal():
    passes = [
        Pass("pass1", 0.0, {}, [2 * REFERENCE_S, 3 * REFERENCE_S], None),
        Pass("pass2", 0.0, {}, [2 * REFERENCE_S], None),
    ]
    assert host_factor(passes) == pytest.approx(2.0)


def test_the_reference_loop_takes_time():
    assert reference_s() > 0
