//! Section 3.1: the classical Server ⇄ two-party equivalence, executed.
//!
//! The paper sketches why the Server model equals the two-party model
//! classically (Alice simulates Carol + a server copy, Bob simulates
//! David + a server copy) and why that simulation *fails* quantumly —
//! the entire reason the Server model exists. This harness runs the
//! classical simulation on concrete protocols and shows the costs match
//! bit for bit, and panics on any row where they do not.

use qdc_bench::{print_header, print_row};
use qdc_cc::problems::{Equality, GapEquality, IpMod3, TwoPartyFunction};
use qdc_cc::server::{run_server, simulate_in_two_party, StreamedServerProtocol};
use qdc_graph::generate;

fn check<F: TwoPartyFunction + Clone>(f: F, seed: u64, widths: &[usize]) {
    let n = f.input_bits();
    let p = StreamedServerProtocol::new(f.clone());
    let mut agree = true;
    let mut cost_equal = true;
    let mut server_cost = 0;
    for trial in 0..20 {
        let x = generate::random_bits(n, seed + trial);
        let y = if trial % 3 == 0 {
            x.clone()
        } else {
            generate::random_bits(n, seed + 1000 + trial)
        };
        if !f.in_promise(&x, &y) {
            continue;
        }
        let sv = run_server(&p, &x, &y);
        let tp = simulate_in_two_party(&p, &x, &y);
        agree &= sv.output == tp.output && sv.output == f.evaluate(&x, &y);
        cost_equal &= sv.cost() == tp.total_bits();
        server_cost = sv.cost();
    }
    print_row(
        &[
            &f.name(),
            &server_cost.to_string(),
            &agree.to_string(),
            &cost_equal.to_string(),
        ],
        widths,
    );
    assert!(agree && cost_equal, "{}: server ≢ two-party", f.name());
}

fn main() {
    println!("=== §3.1: classical Server model ≡ two-party model (simulation) ===\n");
    let widths = [14, 14, 14, 22];
    print_header(
        &[
            "problem",
            "cost (bits)",
            "outputs agree",
            "two-party cost equal",
        ],
        &widths,
    );
    check(Equality::new(16), 1, &widths);
    check(Equality::new(64), 2, &widths);
    check(IpMod3::new(15), 3, &widths);
    check(IpMod3::new(63), 4, &widths);
    check(GapEquality::new(32, 7), 5, &widths);
    println!("\nClassically, nothing is lost by giving the players a free-talking server:");
    println!("Alice and Bob each maintain a deterministic copy of the server and exchange");
    println!("exactly the bits Carol and David would have sent. Quantumly, the server's");
    println!("state cannot be duplicated (no-cloning), the copies cannot be kept in sync");
    println!("without extra messages — and whether Q*,sv = Q*,cc remains the paper's open");
    println!("problem. Hence: prove hardness directly in the Server model (Section 6).");
}
