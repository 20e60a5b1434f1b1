//! `wse-lint` — the stencil lint driver.
//!
//! ```text
//! wse-lint FILE.f90 ...        lint Fortran stencil sources
//! wse-lint --builtin           lint the five paper benchmarks
//! wse-lint --explain E101      explain a diagnostic code
//! wse-lint --codes             list every registered code
//! ```
//!
//! For each program the driver runs the AST lints; when they produce no
//! errors it also compiles the program, links it under the translation
//! validator (`E201`), and runs the static race detector over the
//! optimized instruction stream, so one command covers both ends of the
//! pipeline.  Exit status: 0 clean (warnings
//! allowed), 1 when any error-severity finding or compile failure is
//! reported, 2 on usage errors.

use std::process::ExitCode;

use wse_analysis::{has_errors, Analyzer, Finding};
use wse_ir::diagnostics::{render_explanation, REGISTRY};
use wse_sim::LinkOptions;
use wse_stencil::benchmarks::Benchmark;
use wse_stencil::fortran::parse_fortran;
use wse_stencil::{CompileError, Compiler, StencilProgram};

fn usage() -> ExitCode {
    eprintln!(
        "usage: wse-lint [--explain CODE] [--codes] [--builtin] [FILE.f90 ...]\n\
         \n\
         Lints stencil programs and checks their linked instruction streams\n\
         for races.  Codes are stable; `--explain <code>` documents one."
    );
    ExitCode::from(2)
}

/// The report line of a failed compile.  A pass failure need not carry
/// a code, and then none is printed.
fn compile_failure(e: &CompileError) -> String {
    let head = e.code().map_or_else(|| "error".to_string(), |code| format!("error[{code}]"));
    format!("{head}: compile failed in {}: {}", e.stage(), e.message())
}

/// Lints one program end to end; returns whether an error was found.
fn check_program(label: &str, program: &StencilProgram) -> bool {
    let analyzer = Analyzer::new();
    let mut findings: Vec<Finding> = analyzer.lint(program);
    let lint_errors = has_errors(&findings);

    // The stream-level checks need a compiled artifact; skip them when
    // the AST already fails (compilation would reject the same shapes).
    if !lint_errors {
        match Compiler::new().compile(program) {
            // Validated in release builds too: on the witness grid the
            // translation validator costs a fraction of the compile.
            Ok(artifact) => match wse_sim::link_program_with(
                artifact.loaded_program(),
                &LinkOptions { validate: true, ..LinkOptions::default() },
            ) {
                Ok(linked) => {
                    findings.extend(linked.stats().rejected_passes.iter().map(|pass| {
                        Finding::new(
                            "E201",
                            format!("link pass {pass}"),
                            "rewrite changed the observable dataflow and was reverted".to_string(),
                        )
                    }));
                    findings.extend(analyzer.check_stream(&linked));
                    let counts = analyzer.dependence_graph(&linked).counts();
                    println!(
                        "{label}: dependence DAG {} nodes, {} edges \
                             (raw {}, war {}, waw {}, snapshot {}, halo {})",
                        counts.nodes,
                        counts.edges(),
                        counts.raw,
                        counts.war,
                        counts.waw,
                        counts.snapshot,
                        counts.halo
                    );
                }
                Err(e) => {
                    let code = e.code().unwrap_or("link-layout");
                    println!("{label}: error[{code}] link failed: {}", e.message);
                    return true;
                }
            },
            Err(e) => {
                println!("{label}: {}", compile_failure(&e));
                return true;
            }
        }
    }

    if findings.is_empty() {
        println!("{label}: clean");
    }
    for finding in &findings {
        println!("{label}: {finding}");
    }
    has_errors(&findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }

    let mut files: Vec<String> = Vec::new();
    let mut builtin = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--explain" => {
                let Some(code) = iter.next() else {
                    eprintln!("--explain requires a code");
                    return usage();
                };
                return match render_explanation(code) {
                    Some(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => {
                        eprintln!("unknown code {code:?}; `wse-lint --codes` lists all");
                        ExitCode::from(2)
                    }
                };
            }
            "--codes" => {
                for d in REGISTRY {
                    println!("{:<18} {:<8} {}", d.code, d.severity.to_string(), d.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--builtin" => builtin = true,
            "--help" | "-h" => return usage(),
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}");
                return usage();
            }
            file => files.push(file.to_string()),
        }
    }

    let mut failed = false;
    if builtin {
        for bench in Benchmark::ALL {
            failed |= check_program(bench.name(), &bench.tiny_program());
        }
    }
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let name = file.rsplit('/').next().unwrap_or(file).trim_end_matches(".f90");
        match parse_fortran(name, &source) {
            Ok(program) => failed |= check_program(file, &program),
            Err(e) => {
                eprintln!("{file}: parse error: {e}");
                failed = true;
            }
        }
    }
    if !builtin && files.is_empty() {
        return usage();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_uncoded_compile_failure_prints_no_code() {
        let e = CompileError::pass("p", "m", None);
        assert_eq!(compile_failure(&e), "error: compile failed in p: m");
        let e = CompileError::pass("p", "m", Some("non-linear".to_string()));
        assert_eq!(compile_failure(&e), "error[non-linear]: compile failed in p: m");
    }
}
