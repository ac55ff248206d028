//! Property checks on [`DetRng`]: [`check`] runs a property on seeded
//! cases and reports a failing case shrunk.
//!
//! A property draws its input from a [`Source`] through one recorded
//! primitive, [`Source::below`], so a case is a *choice sequence*. A
//! failing one is replayed edited (spans deleted, draws zeroed, draws
//! lowered by halving), keeping each edit that still fails and draws
//! less. A replay reads 0 past the end of its sequence and wraps a draw
//! too large for its bound. Edits act on draws, not values, so every
//! generator shrinks with no code of its own: Hypothesis's reduction
//! (MacIver and Donaldson, "Test-Case Reduction via Test-Case
//! Generation", ECOOP 2020), cut down.
//!
//! Case `i` of `name` draws from a `DetRng` seeded with FNV-1a of `name`
//! plus `i` times an odd constant. A failing case is replayed shrunk,
//! aloud, then reported with its name, index, seed and draws.
//!
//! ```
//! discfs_crypto::rng::check::check("reversing_keeps_the_length", 32, |src| {
//!     let v = src.vec(0..20, |src| src.any::<u16>());
//!     assert_eq!(v.iter().rev().count(), v.len());
//! });
//! ```

use std::cell::Cell;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use super::{DetRng, RngCore};

/// Replays one shrink may spend before it reports what it has.
const SHRINK_RUNS: usize = 2_000;

/// Text a parser facing the network must survive: ASCII and some UTF-8.
pub const TEXT: &[RangeInclusive<char>] = &['\t'..='\t', ' '..='\u{7f}', 'à'..='ÿ', '🌀'..='🌀'];

thread_local! {
    /// Set while a case runs whose panic the harness reports itself.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Where a property draws its input from, one recorded draw at a time.
pub struct Source {
    /// A fresh case's generator; `None` replays `given`.
    rng: Option<DetRng>,
    given: Vec<u64>,
    drawn: Vec<u64>,
}

/// The integer types of at most 64 bits that a [`Source`] draws.
pub trait Int: Copy + TryFrom<i128> + TryInto<i128> {}

impl<T: Copy + TryFrom<i128> + TryInto<i128>> Int for T {}

impl Source {
    fn new(rng: Option<DetRng>, given: Vec<u64>) -> Source {
        let drawn = Vec::new();
        Source { rng, given, drawn }
    }

    /// A draw in `0..n`, recorded; `n` must not be 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "nothing to draw below 0");
        self.draw(n - 1)
    }

    /// A draw in `0..=max`, which reaches the `u64`s `below` cannot.
    fn draw(&mut self, max: u64) -> u64 {
        let raw = match &mut self.rng {
            Some(rng) => rng.next_u64(),
            None => self.given.get(self.drawn.len()).copied().unwrap_or(0),
        };
        let v = raw.checked_rem(max.wrapping_add(1)).unwrap_or(raw);
        self.drawn.push(v);
        v
    }

    /// A value in `lo..=hi`. One in 16 is an end, where off-by-ones live.
    fn between<T: Int>(&mut self, lo: i128, hi: i128) -> T {
        let span = (hi - lo) as u64;
        let at = match self.below(32) {
            30 => 0,
            31 => span,
            _ => self.draw(span),
        };
        T::try_from(lo + i128::from(at)).ok().expect("in range")
    }

    /// A value in `range`, ends favoured; the range must not be empty.
    pub fn range<T: Int>(&mut self, range: Range<T>) -> T {
        let wide = |v: T| v.try_into().ok().expect("an i128 holds it");
        let (lo, hi) = (wide(range.start), wide(range.end) - 1);
        assert!(lo <= hi, "empty range");
        self.between(lo, hi)
    }

    /// Any value of `T`, its least and greatest favoured.
    pub fn any<T: Int>(&mut self) -> T {
        // A signed type holds -1, and gives its top bit to the sign.
        let signed = T::try_from(-1).is_ok();
        let hi = (1i128 << (8 * std::mem::size_of::<T>() - usize::from(signed))) - 1;
        self.between(if signed { -hi - 1 } else { 0 }, hi)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// `N` uniform bytes.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        std::array::from_fn(|_| self.below(256) as u8)
    }

    /// A `Vec` of a uniform length in `len`, each element drawn by `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Source) -> T) -> Vec<T> {
        let n = len.start + self.below((len.end - len.start) as u64) as usize;
        (0..n).map(|_| item(self)).collect()
    }

    /// One of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A string of a uniform length in `len`, of characters uniform over
    /// `chars`.
    pub fn string(&mut self, len: Range<usize>, chars: &[RangeInclusive<char>]) -> String {
        let chars: Vec<char> = chars.iter().flat_map(|r| r.clone()).collect();
        self.vec(len, |src| *src.pick(&chars)).into_iter().collect()
    }
}

/// Runs `prop` on `cases` cases seeded from `name`.
///
/// # Panics
///
/// Panics when a case fails, with the case shrunk (module docs).
pub fn check(name: &str, cases: u32, mut prop: impl FnMut(&mut Source)) {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                loud(info)
            }
        }));
    });
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    let base = name.bytes().fold(0xCBF2_9CE4_8422_2325, fnv);
    for case in 0..cases {
        let seed = base.wrapping_add(u64::from(case).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let Err(first) = run(&mut prop, Source::new(Some(DetRng::new(seed)), Vec::new())) else {
            continue;
        };
        let (size, (draws, message)) = (first.0.len(), shrink(&mut prop, first));
        // Once more, aloud, so the shrunk failure shows where it panicked.
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            prop(&mut Source::new(None, draws.clone()))
        }));
        panic!(
            "property '{name}' failed at case {case}/{cases} (seed {seed:#x}), \
             shrunk from {size} draws to {}: {draws:?}\n{message}",
            draws.len()
        );
    }
}

/// Runs one case quietly; a failure is its draws and its panic message.
fn run(prop: &mut impl FnMut(&mut Source), mut src: Source) -> Result<(), (Vec<u64>, String)> {
    QUIET.set(true);
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut src)));
    QUIET.set(false);
    result.map_err(|payload| {
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        let message = text.or_else(|| payload.downcast_ref::<String>().cloned());
        (src.drawn, message.unwrap_or_default())
    })
}

/// The smallest failure the three passes reach from `best`.
fn shrink(prop: &mut impl FnMut(&mut Source), mut best: (Vec<u64>, String)) -> (Vec<u64>, String) {
    let mut runs = 0;
    loop {
        let before = best.0.clone();
        // Replays `cand`, keeping it when it fails and draws less.
        let mut attempt = |best: &mut (Vec<u64>, String), cand: Vec<u64>| {
            runs += 1;
            match (runs <= SHRINK_RUNS).then(|| run(prop, Source::new(None, cand))) {
                Some(Err(f)) if (f.0.len(), &f.0) < (best.0.len(), &best.0) => *best = f,
                _ => return false,
            }
            true
        };
        for span in [8, 4, 2, 1] {
            let mut at = 0;
            while at + span <= best.0.len() {
                let mut cand = best.0.clone();
                cand.drain(at..at + span);
                at += usize::from(!attempt(&mut best, cand));
            }
        }
        for at in 0..best.0.len() {
            // Every value below `lo` passes; zero is tried first.
            let mut lo = 0;
            while let Some(&hi) = best.0.get(at).filter(|&&hi| lo < hi) {
                let mut cand = best.0.clone();
                let mid = if lo == 0 { 0 } else { lo + (hi - lo) / 2 };
                cand[at] = mid;
                if !attempt(&mut best, cand) {
                    lo = mid + 1;
                }
            }
        }
        if best.0 == before || runs >= SHRINK_RUNS {
            return best;
        }
    }
}
