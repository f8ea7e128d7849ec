//! Regenerates every table and figure of the paper in sequence, or the
//! one named by `--only NAME` (`table1` … `table11`, `fig5`).

use unidm_eval::{Driver, TABLES};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tables = selected(&args);
    if tables.is_empty() {
        let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        eprintln!("error: --only takes one of: {}", names.join(", "));
        std::process::exit(2);
    }
    let config = unidm_bench::config_from_args();
    for (_, driver) in tables {
        println!("{}", driver(config.clone()));
    }
}

/// The entries of [`TABLES`] to print: all of them, or the one named by
/// `--only NAME` (none when the name is missing or unknown).
fn selected(args: &[String]) -> Vec<&'static (&'static str, Driver)> {
    let only = args
        .iter()
        .position(|a| a == "--only")
        .map(|i| args.get(i + 1));
    TABLES
        .iter()
        .filter(|(name, _)| only.is_none_or(|o| o.is_some_and(|o| o == name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Vec<&'static str> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        selected(&args).iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn only_selects_one_registered_table() {
        assert_eq!(names(&["all_tables"]).len(), TABLES.len());
        assert_eq!(names(&["all_tables", "--only", "table8"]), ["table8"]);
        assert!(names(&["all_tables", "--only", "nope"]).is_empty());
        assert!(names(&["all_tables", "--only"]).is_empty());
    }
}
