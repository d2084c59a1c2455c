//! Seeded input generation: the graded attributes and the query mix.
//!
//! Everything the program under test receives is derived from the
//! `--seed` argument through [`Rng`], so one seed always yields the same
//! grades, the same query sequence and the same write stream.

use garlic_agg::Grade;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream; `stream` separates the streams
    /// drawn from one seed (grades, query order, writes).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Grades are quantized to 1/1000 so that ties occur and tie order is
/// exercised on every backend.
pub fn quantized(rng: &mut Rng) -> Grade {
    Grade::new(rng.below(1001) as f64 / 1000.0).expect("k/1000 lies in [0, 1]")
}

/// Share of objects matching the crisp attribute `S`.
pub const CRISP_SHARE: f64 = 0.002;

/// Names of the fuzzy attributes; a workload uses the first few. Each
/// query class is played over several tuples of them (see [`tuples`]), so
/// a run averages every class over independent attribute combinations
/// rather than one draw of the data.
pub const FUZZY: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

/// The crisp attribute, served after the fuzzy ones.
pub const CRISP: &str = "S";

/// Every attribute of a dataset with `fuzzy` fuzzy attributes: the fuzzy
/// ones, then [`CRISP`].
pub fn attributes(fuzzy: usize) -> Vec<&'static str> {
    FUZZY[..fuzzy].iter().copied().chain([CRISP]).collect()
}

/// The generated grades of one workload: `fuzzy` attributes independent
/// and uniform, then `S` crisp with exactly `round(N · CRISP_SHARE)`
/// matches.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Grades per attribute, in [`attributes`] order; object `i` has
    /// grade `grades[a][i]`.
    pub grades: Vec<Vec<Grade>>,
}

impl Dataset {
    /// Generates `n` objects with `fuzzy` fuzzy attributes (at most
    /// [`FUZZY`]`.len()`) from `seed`.
    pub fn generate(seed: u64, n: usize, fuzzy: usize) -> Dataset {
        let mut rng = Rng::new(seed, 1);
        let mut grades: Vec<Vec<Grade>> = FUZZY[..fuzzy]
            .iter()
            .map(|_| (0..n).map(|_| quantized(&mut rng)).collect())
            .collect();
        let mut ids: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ids);
        let matches = ((n as f64 * CRISP_SHARE).round() as usize).clamp(1, n);
        let mut crisp = vec![Grade::ZERO; n];
        for &i in &ids[..matches] {
            crisp[i] = Grade::ONE;
        }
        grades.push(crisp);
        Dataset { grades }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.grades[0].len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The attribute names, in `grades` order.
    pub fn attributes(&self) -> Vec<&'static str> {
        attributes(self.grades.len() - 1)
    }
}

/// One query class of the mix: a text template over the placeholders `A`,
/// `B`, `C` (filled from a tuple of [`FUZZY`]) and `S`, a `k`, and how many
/// slots of each deck it fills.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// Short label, e.g. `and2_k10`.
    pub label: &'static str,
    /// The query text over the placeholders.
    pub template: &'static str,
    /// The requested result size.
    pub k: usize,
    /// Slots per 40-query deck.
    pub weight: usize,
}

const fn class(label: &'static str, template: &'static str, k: usize, weight: usize) -> Class {
    Class {
        label,
        template,
        k,
        weight,
    }
}

/// The paper's query shapes (A₀′, 3-way A₀′, B₀, generic A₀, filtered and
/// naive negation) with their weights per 40-query deck. Negation fills
/// one slot in 40.
pub const CLASSES: [Class; 10] = [
    class("and2_k1", "A = q AND B = q", 1, 5),
    class("and2_k10", "A = q AND B = q", 10, 5),
    class("and2_k100", "A = q AND B = q", 100, 4),
    class("and3_k1", "A = q AND B = q AND C = q", 1, 3),
    class("and3_k10", "A = q AND B = q AND C = q", 10, 4),
    class("or2_k10", "A = q OR C = q", 10, 5),
    class("or2_k100", "A = q OR C = q", 100, 4),
    class("compound_k10", "C = q AND (A = q OR B = q)", 10, 4),
    class("filtered_k10", "S = q AND A = q", 10, 5),
    class("negation_k10", "A = q AND NOT B = q", 10, 1),
];

/// One query to send: its text, `k`, class, attribute tuple and backend
/// variant.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Index into [`CLASSES`].
    pub class: usize,
    /// Which of the class's attribute tuples fills the placeholders.
    pub tuple: usize,
    /// Index of the backend variant the attribute names address.
    pub variant: usize,
    /// The query text sent to the parser.
    pub text: String,
    /// The same query over the flat attribute names, for the reference.
    pub flat_text: String,
    /// The requested result size.
    pub k: usize,
}

const PLACEHOLDERS: [&str; 3] = ["A", "B", "C"];

/// The attribute tuples a template is played over, as indices into
/// [`FUZZY`] for its placeholders `A`, `B`, `C` in order: every attribute
/// for one placeholder, every unordered pair for two, and the rotations
/// `(t, t+1, t+2)` for three (all triples would make the gate's heavy
/// three-way queries many times more).
pub fn tuples(template: &str, fuzzy: usize) -> Vec<Vec<usize>> {
    let used = PLACEHOLDERS
        .iter()
        .filter(|p| {
            template
                .split(' ')
                .any(|w| w.trim_start_matches('(') == **p)
        })
        .count();
    match used {
        1 => (0..fuzzy).map(|i| vec![i]).collect(),
        2 => (0..fuzzy)
            .flat_map(|i| (i + 1..fuzzy).map(move |j| vec![i, j]))
            .collect(),
        _ => (0..fuzzy)
            .map(|t| (0..3).map(|i| (t + i) % fuzzy).collect())
            .collect(),
    }
}

/// Fills a template's placeholders, in `A`, `B`, `C` order of first use,
/// from `tuple` (indices into [`FUZZY`]) and appends `suffix` to every
/// attribute name (`""` for the flat attributes, `"4"` for the 4-shard
/// ones).
pub fn render(template: &str, tuple: &[usize], suffix: &str) -> String {
    let used: Vec<&str> = PLACEHOLDERS
        .iter()
        .copied()
        .filter(|p| template.split(' ').any(|w| w.trim_start_matches('(') == *p))
        .collect();
    let mut out = String::with_capacity(template.len() + 8);
    for word in template.split(' ') {
        if !out.is_empty() {
            out.push(' ');
        }
        let (open, rest) = match word.strip_prefix('(') {
            Some(rest) => ("(", rest),
            None => ("", word),
        };
        out.push_str(open);
        let slot = used.iter().position(|p| *p == rest);
        match slot {
            Some(i) => out.push_str(FUZZY[tuple[i]]),
            None => out.push_str(rest),
        }
        if slot.is_some() || rest == CRISP {
            out.push_str(suffix);
        }
    }
    out
}

/// Every distinct (query, k) pair over the given variants and `fuzzy`
/// attributes, in a fixed order: variant, then class, then tuple.
pub fn distinct_queries(suffixes: &[&str], fuzzy: usize) -> Vec<QuerySpec> {
    let mut out = Vec::new();
    for (variant, suffix) in suffixes.iter().enumerate() {
        for (class, c) in CLASSES.iter().enumerate() {
            for (tuple, attrs) in tuples(c.template, fuzzy).iter().enumerate() {
                out.push(QuerySpec {
                    class,
                    tuple,
                    variant,
                    text: render(c.template, attrs, suffix),
                    flat_text: render(c.template, attrs, ""),
                    k: c.k,
                });
            }
        }
    }
    out
}

/// The endless seeded query sequence: shuffled decks holding every
/// (class, variant) slot by weight, so class shares are exact per deck and
/// the variants alternate evenly. Each slot takes the next tuple of its
/// (class, variant) in rotation, so every tuple of a class is played
/// equally often.
#[derive(Debug)]
pub struct QueryMix {
    rng: Rng,
    specs: Vec<QuerySpec>,
    deck: Vec<usize>,
    /// Per (variant, class) slot: index of its first spec, its number of
    /// tuples, and the next tuple to play.
    slots: Vec<(usize, usize, usize)>,
    next: usize,
}

impl QueryMix {
    /// The mix over `suffixes` (one backend variant each) and `fuzzy`
    /// attributes, seeded.
    pub fn new(seed: u64, suffixes: &[&str], fuzzy: usize) -> QueryMix {
        let specs = distinct_queries(suffixes, fuzzy);
        let mut rng = Rng::new(seed, 2);
        let mut deck = Vec::new();
        let mut slots = Vec::new();
        let mut first = 0;
        for group in specs.chunk_by(|a, b| a.variant == b.variant && a.class == b.class) {
            deck.extend(std::iter::repeat_n(
                slots.len(),
                CLASSES[group[0].class].weight,
            ));
            slots.push((first, group.len(), rng.below(group.len() as u64) as usize));
            first += group.len();
        }
        let mut mix = QueryMix {
            rng,
            specs,
            deck,
            slots,
            next: usize::MAX,
        };
        mix.reshuffle();
        mix
    }

    fn reshuffle(&mut self) {
        self.rng.shuffle(&mut self.deck);
        self.next = 0;
    }

    /// The index (into [`specs`](Self::specs)) of the next query to send.
    pub fn next_index(&mut self) -> usize {
        if self.next >= self.deck.len() {
            self.reshuffle();
        }
        let (first, len, tuple) = &mut self.slots[self.deck[self.next]];
        self.next += 1;
        let index = *first + *tuple;
        *tuple = (*tuple + 1) % *len;
        index
    }

    /// Whether the next query starts a fresh deck, so that every query
    /// class has had exactly its share since the previous deck boundary.
    pub fn at_deck_start(&self) -> bool {
        self.next == 0 || self.next >= self.deck.len()
    }

    /// Every distinct query the mix can produce.
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Dataset::generate(7, 500, 8);
        let b = Dataset::generate(7, 500, 8);
        assert_eq!(a.grades, b.grades);
        assert_ne!(a.grades, Dataset::generate(8, 500, 8).grades);
        assert_eq!(
            a.attributes(),
            ["A", "B", "C", "D", "E", "F", "G", "H", "S"]
        );
        let ones = a.grades[8].iter().filter(|g| **g == Grade::ONE).count();
        assert_eq!(ones, 1);
    }

    #[test]
    fn render_fills_placeholders_and_suffixes_attributes() {
        assert_eq!(
            render("C = q AND (A = q OR B = q)", &[0, 1, 2], "4"),
            "C4 = q AND (A4 = q OR B4 = q)"
        );
        assert_eq!(
            render("A = q AND NOT B = q", &[7, 0], ""),
            "H = q AND NOT A = q"
        );
        assert_eq!(render("A = q OR C = q", &[1, 5], ""), "B = q OR F = q");
        assert_eq!(render("S = q AND A = q", &[2], "4"), "S4 = q AND C4 = q");
    }

    #[test]
    fn tuples_cover_attributes_pairs_and_rotations() {
        assert_eq!(tuples("S = q AND A = q", 4).len(), 4);
        assert_eq!(tuples("A = q OR C = q", 8).len(), 28);
        assert_eq!(tuples("A = q AND B = q", 4)[5], vec![2, 3]);
        let triples = tuples("C = q AND (A = q OR B = q)", 8);
        assert_eq!(triples.len(), 8);
        assert_eq!(triples[7], vec![7, 0, 1]);
    }

    #[test]
    fn decks_hold_exact_class_shares_and_balanced_tuples() {
        let mut mix = QueryMix::new(3, &["", "4"], 8);
        let deck_len: usize = CLASSES.iter().map(|c| c.weight).sum();
        // 56 decks: every class's tuple count (8 or 28) divides the
        // number of times its slots are played.
        let decks = 56;
        let mut counts = vec![0usize; mix.specs().len()];
        for _ in 0..2 * deck_len * decks {
            counts[mix.next_index()] += 1;
        }
        assert!(mix.at_deck_start());
        for (spec, count) in mix.specs().iter().zip(&counts) {
            let c = &CLASSES[spec.class];
            let per_tuple = c.weight * decks / tuples(c.template, 8).len();
            assert_eq!(*count, per_tuple, "{}", spec.text);
        }
    }
}
