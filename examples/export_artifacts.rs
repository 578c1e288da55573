//! Exports the standard EDA artifacts for one design: structural Verilog,
//! SDF delay annotation, and a VCD waveform of a short overclocked run —
//! exactly the file set the paper's Synopsys + ModelSim flow shuffles
//! between tools. Everything lands under `artifacts/`.
//!
//! Run with: `cargo run --release --example export_artifacts [design]`

use overclocked_isa::core::{Design, IsaConfig};
use overclocked_isa::experiments::{DesignContext, ExperimentConfig};
use overclocked_isa::netlist::{sdf, verilog};
use overclocked_isa::timing_sim::{ps_to_fs, SimCore};
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

fn main() -> std::io::Result<()> {
    let design = match std::env::args().nth(1).as_deref() {
        None => Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).expect("valid")),
        Some("exact") => Design::Exact { width: 32 },
        Some(quad) => Design::Isa(
            quad.parse::<IsaConfig>()
                .expect("design must be 'exact' or a quadruple like (8,0,1,4)"),
        ),
    };
    let config = ExperimentConfig::default();
    let ctx = DesignContext::build(design, &config);
    let netlist = ctx.synthesized.adder.netlist();
    std::fs::create_dir_all("artifacts")?;
    let base = format!("artifacts/{}", netlist.name());

    // Structural Verilog.
    let v_path = format!("{base}.v");
    std::fs::write(&v_path, verilog::write(netlist))?;

    // SDF with the die's process variation.
    let sdf_path = format!("{base}.sdf");
    std::fs::write(&sdf_path, sdf::write(netlist, &ctx.annotation))?;

    // A short overclocked run with full waveform recording.
    let clk_fs = ps_to_fs(config.clock_ps(0.15));
    let mut sim = SimCore::new(netlist, &ctx.annotation);
    sim.start_recording(netlist);
    for (a, b) in take_pairs(UniformWorkload::new(32, 0xA57), 32) {
        let t0 = sim.now_fs();
        sim.set_inputs(netlist, &ctx.synthesized.adder.input_values(a, b));
        sim.run_until(netlist, t0 + clk_fs);
    }
    let wave = sim.take_recording().expect("recording active");
    let vcd_path = format!("{base}.vcd");
    std::fs::write(&vcd_path, wave.to_vcd(netlist))?;

    println!(
        "design {} ({} cells, crit {:.1} ps)",
        ctx.label(),
        netlist.cell_count(),
        ctx.synthesized.critical_ps
    );
    println!("  wrote {v_path}");
    println!("  wrote {sdf_path}");
    println!(
        "  wrote {vcd_path} ({} transitions over 32 overclocked cycles)",
        wave.len()
    );
    println!("\nInspect the waveform with e.g.: gtkwave {vcd_path}");
    Ok(())
}
