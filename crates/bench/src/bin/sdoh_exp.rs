//! `sdoh-exp <name>|all [--smoke] [--seed N] [--out PATH]`: runs the
//! experiments of the index (`sdoh_bench::EXPERIMENTS`); without arguments
//! it prints the usage and the index.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(sdoh_bench::runner::main(&args));
}
