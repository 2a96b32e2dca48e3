//! Interconnect sensitivity study (extension experiment).
//!
//! The paper's thesis is that PCIe starves GPU cores on Big-Data-style
//! workloads and that BigKernel "largely removes PCIe from being a
//! bottleneck". This sweep varies the CPU-GPU link from PCIe Gen1 to an
//! NVLink-class interconnect and reports the BigKernel-over-double-buffer
//! advantage at each point: the slower the link, the more BigKernel's
//! transfer-volume reduction matters; with a fat link both implementations
//! converge on the compute roofline. (This is also the quantitative side of
//! the "UVM/faster links partly supersede this work" argument.)

use bk_apps::{run_all, Implementation};
use bk_bench::{all_apps, args::ExpArgs, render, short_name};
use bk_host::PcieLink;

fn main() {
    let args = ExpArgs::from_env();
    let links: [(&str, PcieLink); 4] = [
        ("pcie-gen1", PcieLink::gen1_x16()),
        ("pcie-gen2", PcieLink::gen2_x16()),
        ("pcie-gen3", PcieLink::gen3_x16()),
        ("nvlink", PcieLink::nvlink_class()),
    ];

    render::header("Interconnect sensitivity — BigKernel speedup over double buffering");
    print!("{:<9}", "app");
    for (name, _) in &links {
        print!(" {name:>10}");
    }
    println!();

    let imps = [Implementation::GpuDoubleBuffer, Implementation::BigKernel];
    for app in args.select(all_apps()) {
        let name = app.spec().name;
        print!("{:<9}", short_name(name));
        for (_, link) in &links {
            let mut cfg = args.harness_config();
            cfg.link = Some(link.clone());
            let r = run_all(app.as_ref(), args.bytes, args.seed, &cfg, &imps);
            let adv = r[0].1.total.ratio(r[1].1.total);
            print!(" {:>9.2}x", adv);
        }
        println!();
    }
    println!();
    println!("(expected shape: the advantage shrinks left to right — a faster link");
    println!(" leaves less communication for BigKernel to hide or reduce)");
}
