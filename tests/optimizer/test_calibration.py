"""The cost model's calibrate() hook: estimates vs. measured metrics."""

from repro.core import parse_tree
from repro.optimizer import Optimizer
from repro.optimizer.cost import CostModel, actual_cost_units, calibration_report
from repro.query import Q, evaluate_with_metrics
from repro.query import expr as E
from repro.storage import Database


def make_db() -> Database:
    db = Database()
    db.bind_root("T", parse_tree("r(d(e(h i) j) s(d(e(h i) j) k) d(x))"))
    return db


def test_calibrate_reports_each_executed_operator():
    db = make_db()
    query = Q.root("T").sub_select("d(e(h i) j)").build()
    _, metrics = evaluate_with_metrics(query, db)
    records = CostModel(db).calibrate(query, metrics)
    assert [record.path for record in records] == [(), (0,)]
    assert records[0].actual_rows == metrics[()].rows_out
    assert records[0].actual_units == actual_cost_units(metrics[()].counters)
    assert records[0].rule is None  # logical node: no producing rule


def test_calibrate_on_optimized_plan_reports_no_rule():
    # The optimizer emits logical plans only (access paths are a
    # lowering choice), so no calibration record carries a rule tag.
    db = make_db()
    query = Q.root("T").sub_select("d(e(h i) j)").build()
    plan, _ = Optimizer(db).optimize(query)
    assert isinstance(plan, E.SubSelect)
    _, metrics = evaluate_with_metrics(plan, db)
    records = CostModel(db).calibrate(plan, metrics)
    assert records and all(record.rule is None for record in records)


def test_calibration_report_renders_errors():
    db = make_db()
    query = Q.root("T").sub_select("d(e(h i) j)").build()
    _, metrics = evaluate_with_metrics(query, db)
    records = CostModel(db).calibrate(query, metrics)
    report = calibration_report(records)
    assert report.startswith("calibration")
    assert "sub_select" in report
    assert "err" in report


def test_errors_are_symmetric_and_at_least_one():
    db = make_db()
    query = Q.root("T").sub_select("d(e(h i) j)").build()
    _, metrics = evaluate_with_metrics(query, db)
    for record in CostModel(db).calibrate(query, metrics):
        row_error = record.row_error()
        if row_error is not None:
            assert row_error >= 1.0
        assert record.cost_error() >= 1.0


def test_apply_over_select_estimates_the_selects_output():
    # apply/flatten preserve their input's cardinality: under a select
    # the estimate is the select's, not the extent's full size (which
    # EXPLAIN ANALYZE used to flag as many times off).
    from repro.core.identity import Record
    from repro.predicates import attr

    db = Database()
    db.insert_many(
        [Record(name=f"p{i}", age=i % 60, city=f"C{i % 20}") for i in range(2000)],
        "Person",
    )
    selected = Q.extent("Person").sselect(attr("age") > 30)
    model = CostModel(db)
    select_rows = model.estimated_rows(selected.build())
    assert select_rows < db.extent_size("Person")
    assert model.estimated_rows(selected.sapply(lambda p: p.name).build()) == select_rows
    flattened = E.SetFlatten(selected.sapply(lambda p: {p.name}).build())
    assert model.estimated_rows(flattened) == select_rows
