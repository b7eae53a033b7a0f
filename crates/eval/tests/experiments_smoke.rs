//! Smoke tests: every experiment driver produces a well-formed report at
//! tiny scale (shape checks; the numeric assertions live in the
//! repository-level integration tests).

use bhive_corpus::Scale;
use bhive_eval::{experiments, Pipeline, Report};
use bhive_uarch::UarchKind;

fn pipeline() -> Pipeline {
    Pipeline::new(Scale::PerApp(8), 5, 0)
}

fn check_report(report: &Report, expected_rows: Option<usize>) {
    assert!(!report.id.is_empty());
    assert!(!report.columns.is_empty());
    assert!(!report.rows.is_empty(), "{} has no rows", report.id);
    for row in &report.rows {
        assert_eq!(row.len(), report.columns.len(), "{} row arity", report.id);
    }
    if let Some(n) = expected_rows {
        assert_eq!(report.rows.len(), n, "{} row count", report.id);
    }
    // Text and JSON renderings both work.
    let text = report.to_string();
    assert!(text.contains(&report.id));
    let json = report.to_json().expect("serializable");
    let back: Report = serde_json::from_str(&json).expect("parseable");
    assert_eq!(&back, report);
}

#[test]
fn table_reports_are_well_formed() {
    let p = pipeline();
    check_report(&experiments::table1(&p), Some(3));
    check_report(&experiments::table2(&p), None);
    check_report(&experiments::table3(&p), Some(10)); // 9 apps + total
    check_report(&experiments::table4(&p), Some(6));
    check_report(&experiments::table6(&p), Some(6)); // 2 apps x 3 models
}

#[test]
fn table5_covers_all_uarch_model_pairs() {
    let p = pipeline();
    let report = experiments::table5(&p);
    check_report(&report, Some(12));
    // The rows keep the fixed uarch × model order, whatever order the
    // cells ran in.
    let cells: Vec<(&str, &str)> = report
        .rows
        .iter()
        .map(|row| (row[0].as_str(), row[1].as_str()))
        .collect();
    let expected: Vec<(&str, &str)> = UarchKind::ALL
        .iter()
        .flat_map(|uarch| ["iaca", "llvm-mca", "ithemal", "osaca"].map(|m| (uarch.name(), m)))
        .collect();
    assert_eq!(cells, expected);
    // Every row's error parses as a finite number.
    for row in &report.rows {
        let err: f64 = row[2]
            .parse()
            .unwrap_or_else(|_| panic!("bad error cell {row:?}"));
        assert!(err.is_finite() && err >= 0.0);
    }
}

#[test]
fn figure_reports_are_well_formed() {
    let p = pipeline();
    check_report(&experiments::fig3(&p), Some(6));
    check_report(&experiments::fig4(&p), None);
    check_report(&experiments::fig_google(&p), Some(2));
    check_report(&experiments::fig_app_err(&p, UarchKind::Haswell), None);
    check_report(
        &experiments::fig_cluster_err(&p, UarchKind::Haswell),
        Some(6),
    );
    check_report(&experiments::case_study(&p), Some(3));
    check_report(&experiments::fig_schedule(&p), Some(2));
    check_report(&experiments::filter_census(&p), Some(2));
}

#[test]
fn fig4_rows_sum_to_one() {
    let p = pipeline();
    let report = experiments::fig4(&p);
    for row in &report.rows {
        let total: f64 = row[1..]
            .iter()
            .map(|cell| cell.trim_end_matches('%').parse::<f64>().unwrap_or(0.0))
            .sum();
        assert!(
            (total - 100.0).abs() < 1.0,
            "{} percentages sum to {total}",
            row[0]
        );
    }
}
