//! Table 1: hardware intrinsics for look-up and aggregation per instruction
//! set, plus what the running host dispatches to.

use tmac_eval::Table;
use tmac_simd::Isa;

fn main() {
    let mut table = Table::new(&["instruction set", "look-up", "fast aggregation", "lanes"]);
    for isa in [Isa::Neon, Isa::Avx512, Isa::Avx2, Isa::Scalar] {
        table.row(vec![
            isa.name().to_uppercase(),
            isa.lookup_intrinsic().into(),
            isa.aggregation_intrinsic().into(),
            isa.lookups_per_instr().to_string(),
        ]);
    }
    println!("Table 1: look-up / aggregation intrinsics per ISA\n");
    table.emit("table1_intrinsics");
    let active = Isa::detect();
    println!(
        "Active backend on this host: {} ({} parallel 8-bit lookups per instruction)",
        active.name(),
        active.lookups_per_instr()
    );
}
