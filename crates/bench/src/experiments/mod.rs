//! One module per paper artifact (`fig5.rs` runs Fig. 10 as well: the
//! 5b sweep on SSD). The experiment index in
//! `docs/ARCHITECTURE.md` maps each id to its figure/table, workload,
//! scales and gated ids.

pub mod columnar;
pub mod costmodel;
pub mod cr;
pub mod faults;
pub mod fig1;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod join;
pub mod parallel;
pub mod serve;
pub mod spill;

/// Known experiment ids, in paper order.
pub const ALL: &[&str] = &[
    "fig1",
    "fig4",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table1",
    "costmodel",
    "cr",
    "columnar",
    "parallel",
    "join",
    "serve",
    "spill",
    "faults",
];

/// Dispatch one experiment by id. Returns false for unknown ids.
pub fn run(id: &str) -> bool {
    match id {
        "fig1" => fig1::run(),
        "fig4" | "table2" => fig4::run(),
        "fig5a" | "fig5b" | "fig10" => fig5::run(id),
        "fig6" => fig6::run(),
        "fig7a" => fig7::run_policies(),
        "fig7b" => fig7::run_triggers(),
        "fig8" => fig8::run(),
        "fig9" => fig9::run(),
        "fig11" => fig11::run(),
        "table1" | "costmodel" => costmodel::run(),
        "cr" => cr::run(),
        "columnar" => columnar::run(),
        "parallel" => parallel::run(),
        "join" => join::run(),
        "serve" => serve::run(),
        "spill" => spill::run(),
        "faults" => faults::run(),
        _ => return false,
    }
    true
}
