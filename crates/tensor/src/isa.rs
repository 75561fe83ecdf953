//! Which compiled copy of a kernel runs.
//!
//! The LSTM sequence kernels ([`crate::lstm_seq`]) and the conv GEMM
//! ([`crate::conv`]) are each one `#[inline(always)]` body compiled
//! twice: a baseline entry, and an entry built with AVX2 enabled, which
//! runs when the CPU reports AVX2 ([`Isa::detect`]). Rust never fuses a
//! multiply and an add into one rounding, and the AVX2 entry does not
//! enable FMA, so both entries compute the same bits; each kernel's
//! tests check this.

/// One compiled copy of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Built for the target's baseline features.
    Base,
    /// Built with AVX2 enabled. Only [`Isa::detect`] makes it, and only
    /// on a CPU that reports AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The AVX2 entry when the CPU has AVX2, else the baseline one.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Base
    }

    /// Every entry this CPU runs: the baseline one, then the detected
    /// one when it differs. For tests that hold each entry to the same
    /// bits.
    pub(crate) fn all() -> Vec<Isa> {
        let mut all = vec![Isa::Base];
        if Isa::detect() != Isa::Base {
            all.push(Isa::detect());
        }
        all
    }

    /// A stable lowercase name for test messages.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Isa::Base => "baseline",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
        }
    }
}
