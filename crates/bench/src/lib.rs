//! Shared helpers for the modref benchmark harness: paper-style table
//! rendering, the fixed experiment grid (3 designs × 4 models), and a
//! minimal Criterion-compatible measurement harness ([`harness`]) so the
//! benches run without network access to crates.io, and the one
//! `BENCH_*.json` record writer ([`record`]).

pub mod harness;
pub mod record;

use modref_core::ImplModel;
use modref_workloads::Design;

/// The evaluation grid of the paper's Section 5.
pub fn grid() -> Vec<(Design, ImplModel)> {
    Design::ALL
        .iter()
        .flat_map(|&d| ImplModel::ALL.iter().map(move |&m| (d, m)))
        .collect()
}

/// Mean ns/iteration of `f` over `iters` calls.
pub fn time_ns<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Best mean ns/iteration over several batches — scheduling noise on a
/// shared machine only ever *adds* time, so min-of-batches is the
/// stable estimator.
pub fn best_time_ns<R>(batches: u32, iters: u64, mut f: impl FnMut() -> R) -> f64 {
    (0..batches)
        .map(|_| time_ns(iters, &mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Renders a simple aligned table: a header row and data rows.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_three_by_four() {
        assert_eq!(grid().len(), 12);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["a".into(), "bb".into()],
            &[vec!["111".into(), "2".into()]],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("111  2"));
    }
}
