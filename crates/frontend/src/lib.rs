//! # rolag-frontend
//!
//! Source frontends for the RoLAG loop-rolling reproduction.
//!
//! A [`Frontend`] turns source bytes into a [`rolag_ir::Module`] plus
//! per-function diagnostics. Two implementations ship with the crate:
//!
//! * [`native::NativeFrontend`] — the project's own textual `.rir` format
//!   and the compact binary `.rlir` format (detected by magic bytes);
//! * [`llvm::LlvmFrontend`] — an importer for the LLVM-textual-IR subset
//!   our generators and the TSVC kernels exercise. Anything outside the
//!   subset is a clean per-function skip with a [`SkipCode`], never a
//!   panic.
//!
//! The companion [`emit`] module renders a module back out as LLVM text
//! (the inverse of the importer over the shared subset), and [`corpus`]
//! holds the streaming corpus pipeline that feeds bounded batches of
//! frontend output into `rolag::roll_module_par` under a memory budget.

#![warn(missing_docs)]

pub mod corpus;
pub mod emit;
pub mod llvm;
pub mod native;

use std::fmt;

use rolag_ir::Module;

/// Machine-readable reason a function (or global) was skipped by a
/// frontend instead of imported.
///
/// Skips are per-function: the function is registered as an external
/// declaration so callers still resolve, but its body is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum SkipCode {
    /// Instruction or constant kind outside the supported subset
    /// (e.g. `fptoui`, `extractvalue`, `atomicrmw`).
    UnsupportedOp,
    /// Type outside the subset (vectors, fp80/fp128, packed or opaque
    /// structs, byval/sret aggregates-by-copy).
    UnsupportedType,
    /// `fcmp` predicate outside the ordered subset we model.
    UnsupportedPredicate,
    /// Constant we cannot represent (`null`, constant expressions,
    /// integers wider than 64 bits).
    UnsupportedConstant,
    /// Variadic function or call.
    Varargs,
    /// Call through a pointer rather than a declared symbol.
    IndirectCall,
    /// Volatile or atomic memory access.
    Atomics,
    /// `invoke`/`landingpad`/EH constructs.
    ExceptionHandling,
    /// Module-level or inline assembly.
    InlineAsm,
    /// Reference to a symbol that was itself skipped or never declared.
    UnknownReference,
    /// Global initializer outside the subset (pointer initializers,
    /// nested aggregates, relocations).
    UnsupportedGlobal,
    /// Body failed to parse for a reason not covered above.
    MalformedBody,
}

impl SkipCode {
    /// Stable string form used in stats maps and reports.
    pub fn code(self) -> &'static str {
        match self {
            SkipCode::UnsupportedOp => "unsupported-op",
            SkipCode::UnsupportedType => "unsupported-type",
            SkipCode::UnsupportedPredicate => "unsupported-predicate",
            SkipCode::UnsupportedConstant => "unsupported-constant",
            SkipCode::Varargs => "varargs",
            SkipCode::IndirectCall => "indirect-call",
            SkipCode::Atomics => "atomics",
            SkipCode::ExceptionHandling => "exception-handling",
            SkipCode::InlineAsm => "inline-asm",
            SkipCode::UnknownReference => "unknown-reference",
            SkipCode::UnsupportedGlobal => "unsupported-global",
            SkipCode::MalformedBody => "malformed-body",
        }
    }
}

impl fmt::Display for SkipCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One skipped function: which symbol, why, and where in the source.
#[derive(Debug, Clone)]
pub struct Skip {
    /// Symbol name (without `@`).
    pub symbol: String,
    /// Machine-readable reason.
    pub code: SkipCode,
    /// Human-readable detail (e.g. the offending instruction).
    pub detail: String,
    /// 1-based source line of the offending construct (0 when unknown).
    pub line: u32,
    /// 1-based source column (0 when unknown).
    pub col: u32,
}

/// A diagnostic with a source span, rendered through the caret printer.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Origin (file path or `<stdin>`).
    pub origin: String,
    /// 1-based line (0 when the error has no location, e.g. binary input).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Message text.
    pub message: String,
}

impl Diagnostic {
    /// Renders `origin:line:col: error: message` followed by the source
    /// line and a caret, matching the renderer used by pass-pipeline
    /// spec errors. Omits the caret when the span is unknown or out of
    /// range (binary input).
    pub fn render(&self, source: &str) -> String {
        let mut out = if self.line == 0 {
            format!("{}: error: {}", self.origin, self.message)
        } else {
            format!(
                "{}:{}:{}: error: {}",
                self.origin, self.line, self.col, self.message
            )
        };
        if self.line > 0 {
            if let Some(text) = source.lines().nth(self.line as usize - 1) {
                out.push_str("\n  ");
                out.push_str(text);
                out.push_str("\n  ");
                // The caret pads by bytes; clamp a column that lands inside
                // a multi-byte character to that character's start.
                let col = text.floor_char_boundary(self.col.max(1) as usize - 1);
                for c in text[..col].chars() {
                    out.push(if c == '\t' { '\t' } else { ' ' });
                }
                out.push('^');
            }
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: error: {}", self.origin, self.message)
        } else {
            write!(
                f,
                "{}:{}:{}: error: {}",
                self.origin, self.line, self.col, self.message
            )
        }
    }
}

impl std::error::Error for Diagnostic {}

/// Result of a successful frontend parse: the module plus any
/// per-function skips.
#[derive(Debug)]
pub struct FrontendResult {
    /// The imported module. Skipped functions appear as declarations.
    pub module: Module,
    /// Functions (or globals) dropped from the import, with reasons.
    pub skips: Vec<Skip>,
}

/// A source frontend: parses bytes into a module.
pub trait Frontend {
    /// Short name used in CLI flags and reports (`"rir"`, `"llvm"`).
    fn name(&self) -> &'static str;

    /// Parses `source` into a module. `origin` labels diagnostics
    /// (file path or `<stdin>`).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the input is malformed at module
    /// granularity. Per-function trouble inside an otherwise healthy
    /// module is reported through [`FrontendResult::skips`] instead.
    fn parse(&self, source: &[u8], origin: &str) -> Result<FrontendResult, Diagnostic>;
}

/// Which frontend to use for an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontendKind {
    /// Decide from the file name and content ([`detect`]).
    #[default]
    Auto,
    /// Native `.rir` text / `.rlir` binary.
    Native,
    /// LLVM textual IR subset.
    Llvm,
}

impl FrontendKind {
    /// Parses a `--frontend` flag value.
    pub fn from_flag(s: &str) -> Option<FrontendKind> {
        match s {
            "auto" => Some(FrontendKind::Auto),
            "rir" | "native" | "rlir" => Some(FrontendKind::Native),
            "llvm" | "ll" => Some(FrontendKind::Llvm),
            _ => None,
        }
    }

    /// Resolves `Auto` against a concrete input, then builds the frontend.
    pub fn frontend_for(self, origin: &str, source: &[u8]) -> Box<dyn Frontend> {
        match self {
            FrontendKind::Native => Box::new(native::NativeFrontend),
            FrontendKind::Llvm => Box::new(llvm::LlvmFrontend),
            FrontendKind::Auto => match detect(origin, source) {
                FrontendKind::Llvm => Box::new(llvm::LlvmFrontend),
                _ => Box::new(native::NativeFrontend),
            },
        }
    }
}

/// Guesses the frontend for an input from its name and leading bytes:
/// `RLIR` magic or a `module "` header mean native; an `.ll` extension
/// or characteristic LLVM lines (`define `, `declare `, `; ModuleID`,
/// `target `) mean LLVM. Defaults to native.
pub fn detect(origin: &str, source: &[u8]) -> FrontendKind {
    if source.starts_with(&rolag_ir::serialization::MAGIC) {
        return FrontendKind::Native;
    }
    if origin.ends_with(".ll") {
        return FrontendKind::Llvm;
    }
    if origin.ends_with(".rir") || origin.ends_with(".rlir") {
        return FrontendKind::Native;
    }
    let text = String::from_utf8_lossy(&source[..source.len().min(4096)]);
    for line in text.lines() {
        let line = line.trim_start();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("module \"") {
            return FrontendKind::Native;
        }
        if line.starts_with("; ModuleID")
            || line.starts_with("define ")
            || line.starts_with("declare ")
            || line.starts_with("target ")
            || line.starts_with("source_filename")
        {
            return FrontendKind::Llvm;
        }
    }
    FrontendKind::Native
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_by_magic_and_content() {
        assert_eq!(detect("x", b"RLIR\x01\x00rest"), FrontendKind::Native);
        assert_eq!(detect("x.ll", b""), FrontendKind::Llvm);
        assert_eq!(detect("x.rir", b""), FrontendKind::Native);
        assert_eq!(detect("x", b"module \"m\"\n"), FrontendKind::Native);
        assert_eq!(
            detect("x", b"; ModuleID = 'm'\ndefine void @f() {\n"),
            FrontendKind::Llvm
        );
        assert_eq!(
            detect("x", b"\n\ndeclare i32 @f(i32)\n"),
            FrontendKind::Llvm
        );
        assert_eq!(detect("x", b"random text"), FrontendKind::Native);
    }

    #[test]
    fn diagnostic_caret_render() {
        let d = Diagnostic {
            origin: "a.ll".into(),
            line: 2,
            col: 5,
            message: "bad token".into(),
        };
        let src = "line one\nabc def\n";
        let r = d.render(src);
        assert_eq!(r, "a.ll:2:5: error: bad token\n  abc def\n      ^");
        let no_span = Diagnostic {
            origin: "a.rlir".into(),
            line: 0,
            col: 0,
            message: "truncated".into(),
        };
        assert_eq!(no_span.render(""), "a.rlir: error: truncated");
    }

    #[test]
    fn diagnostic_caret_clamps_to_a_char_boundary() {
        // Column 3 is byte 2, the second byte of the two-byte 'é'.
        let d = Diagnostic {
            origin: "a.rir".into(),
            line: 1,
            col: 3,
            message: "bad".into(),
        };
        assert_eq!(d.render("aéb"), "a.rir:1:3: error: bad\n  aéb\n   ^");
        let past_end = Diagnostic { col: 40, ..d };
        assert_eq!(
            past_end.render("aéb"),
            "a.rir:1:40: error: bad\n  aéb\n     ^"
        );
    }
}
