//! The §9 derivations as printable, auditable certificates.
//!
//! Prints the fully-evaluated Theorem 3.6 and 3.8 derivations — Server
//! hardness × simulation cost × parameter choice — at several scales,
//! with every constant explicit. Panics unless the Theorem 3.6 bound
//! grows with n and the measured constant c = 2 tightens it.

use qdc_core::certificates::{theorem36_certificate, theorem38_certificate, CompositionConstants};

fn main() {
    let consts = CompositionConstants::default();
    println!(
        "=== Executable §9 certificates (c′ = {}, c = {}) ===\n",
        consts.server_constant, consts.simulation_constant
    );

    let mut prev = f64::MIN;
    for &n in &[1usize << 14, 1 << 18, 1 << 22] {
        let cert = theorem36_certificate(n, 16, &consts);
        println!("{}", cert.render());
        assert!(cert.rounds > prev, "Theorem 3.6 rounds must grow with n");
        prev = cert.rounds;
    }

    println!("--- Theorem 3.8 across the W sweep (n = 2^18, α = 2) ---\n");
    for &w in &[256.0f64, 4096.0, 1e9] {
        println!(
            "{}",
            theorem38_certificate(1 << 18, 16, w, 2.0, &consts).render()
        );
    }

    // The measured simulation constant (audits stay under 2) tightens the
    // bound by 3×:
    let tight = CompositionConstants {
        simulation_constant: 2.0,
        ..Default::default()
    };
    println!("--- With the *measured* simulation constant c = 2 ---\n");
    let tightened = theorem36_certificate(1 << 18, 16, &tight);
    println!("{}", tightened.render());
    assert!(
        tightened.rounds > theorem36_certificate(1 << 18, 16, &consts).rounds,
        "c = 2 must tighten the bound"
    );
}
