//! Reproduces **Table 1**: the benchmark model inventory.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    accmos_bench::check_flags(&args, &[]);
    println!("Table 1: The description of benchmark models");
    println!("{:<7} {:<42} {:>7} {:>11}", "Model", "Functionality", "#Actor", "#SubSystem");
    let domains = [
        ("CPUT", "AutoSAR CPU task dispatch system"),
        ("CSEV", "Charging system of electric vehicle"),
        ("FMTM", "Factory Multi-point Temperature Monitor"),
        ("LANS", "LAN Switch controller"),
        ("LEDLC", "LED light controller"),
        ("RAC", "Robotic arm controller"),
        ("SPV", "Solar PV panel output control"),
        ("TCP", "TCP three-way handshake protocol"),
        ("TWC", "Train wheel speed controller"),
        ("UTPC", "Underwater thruster power control"),
    ];
    for (name, domain) in domains {
        let model = accmos_models::by_name(name);
        println!(
            "{:<7} {:<42} {:>7} {:>11}",
            name,
            domain,
            model.root.actor_count(),
            model.root.subsystem_count()
        );
    }
}
