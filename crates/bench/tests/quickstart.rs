//! Executes the quickstart demonstration (the same function
//! `examples/quickstart.rs` runs) so `cargo test` guards the
//! checkpoint → restore → bit-identical-continuation path end to end.

use workloads::quickstart;

#[test]
fn quickstart_demo_checkpoint_restore_bit_identical() {
    let out = quickstart(4, 99, 35);
    assert!(
        out.bit_identical(),
        "restart diverged: {:?} vs {:?}",
        out.native_results,
        out.ckpt_results
    );
    let ckpt = &out.checkpoint;
    assert!(ckpt.verify().is_ok());
    assert!(ckpt.targets_exactly_reached());
    assert_eq!(ckpt.n_ranks, 4);
    assert!(
        !ckpt.cut().is_empty(),
        "a mid-flight cut must contain executed collectives"
    );
}
