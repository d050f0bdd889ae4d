//! The `pyjama-ledger` runner. See `pyjama_ledger::cli`.

#[global_allocator]
static GLOBAL: pyjama_ledger::alloc::CountingAlloc = pyjama_ledger::alloc::CountingAlloc;

fn main() {
    std::process::exit(pyjama_ledger::cli::main());
}
