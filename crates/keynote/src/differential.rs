//! Differential tests of the query index: random sessions on which the
//! indexed [`Session::query`] must return what the full scan returns.
//!
//! These live in the crate, not under `tests/`, because the oracle
//! (`Session::query_full_scan`) and the evaluated-programs counter are
//! `#[cfg(test)]` items: an integration test links the library without
//! them, and exporting them would ship a second query path.

use discfs_crypto::ed25519::SigningKey;
use discfs_crypto::rng::{DetRng, RngCore};

use crate::session::PROGRAMS_EVALUATED;
use crate::{key_principal, AssertionBuilder, Principal, Session};

const PERMS: [&str; 8] = ["false", "X", "W", "WX", "R", "RX", "RW", "RWX"];

/// The workspace's seeded generator, with the draws the generators
/// below need.
struct Rng(DetRng);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(DetRng::new(seed))
    }

    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T: ?Sized>(&mut self, items: &[&'a T]) -> &'a T {
        items[self.below(items.len())]
    }
}

/// Attribute names conditions refer to; `zz` is never set, and the two
/// `_`-special names must stay out of the index.
const ATTRS: [&str; 9] = [
    "a",
    "b",
    "HANDLE",
    "app_domain",
    "n",
    "sel",
    "zz",
    "_MIN_TRUST",
    "_ACTION_AUTHORIZERS",
];
/// String literals, the empty one included.
const LITERALS: [&str; 8] = ["x", "y", "DisCFS", "1.5", "1.50", "7", "false", ""];
/// Values an attribute may be set to (`sel` holds attribute names).
const SETTINGS: [&str; 9] = ["x", "y", "DisCFS", "1.5", "7", "", "a", "b", "junk"];
const PATTERNS: [&str; 5] = ["^D.*S$", "x|y", "^1", "(unclosed", ""];
const NUMBERS: [&str; 4] = ["1", "1.5", "7", "0"];

fn string_value(rng: &mut Rng, depth: usize) -> String {
    match rng.below(if depth == 0 { 8 } else { 10 }) {
        0..=4 => rng.pick(&ATTRS).to_string(),
        5 | 6 => format!("\"{}\"", rng.pick(&LITERALS)),
        7 => "$sel".to_string(),
        8 => format!("$({})", string_value(rng, depth - 1)),
        _ => format!(
            "({} . {})",
            string_value(rng, depth - 1),
            string_value(rng, depth - 1)
        ),
    }
}

fn numeric_value(rng: &mut Rng) -> String {
    match rng.below(5) {
        0 | 1 => rng.pick(&NUMBERS).to_string(),
        2 => format!("({} + {})", rng.pick(&["n", "a"]), rng.pick(&NUMBERS)),
        3 => format!("-{}", rng.pick(&["n", "zz"])),
        _ => format!("({} / {})", rng.pick(&["n", "7"]), rng.pick(&NUMBERS)),
    }
}

/// The shape the index files assertions under, either way round —
/// and, drawn from the same pools, its near misses: `_`-special
/// attributes and the empty literal.
fn equality(rng: &mut Rng) -> String {
    let attr = rng.pick(&ATTRS);
    let literal = rng.pick(&LITERALS);
    if rng.chance(25) {
        format!("\"{literal}\" == {attr}")
    } else {
        format!("{attr} == \"{literal}\"")
    }
}

fn test_expr(rng: &mut Rng, depth: usize) -> String {
    const CMP: [&str; 6] = ["==", "!=", "<", ">", "<=", ">="];
    let leaf = depth == 0 || rng.chance(55);
    if leaf {
        return match rng.below(12) {
            0..=4 => equality(rng),
            5 | 6 => format!(
                "{} {} {}",
                string_value(rng, 1),
                rng.pick(&CMP),
                string_value(rng, 1)
            ),
            7 | 8 => format!(
                "{} {} {}",
                rng.pick(&["n", "a", "zz", "7"]),
                rng.pick(&CMP),
                numeric_value(rng)
            ),
            9 => format!("{} ~= \"{}\"", string_value(rng, 1), rng.pick(&PATTERNS)),
            10 => "true".to_string(),
            _ => "false".to_string(),
        };
    }
    match rng.below(5) {
        0 | 1 => format!(
            "({}) && ({})",
            test_expr(rng, depth - 1),
            test_expr(rng, depth - 1)
        ),
        2 | 3 => format!(
            "({}) || ({})",
            test_expr(rng, depth - 1),
            test_expr(rng, depth - 1)
        ),
        _ => format!("!({})", test_expr(rng, depth - 1)),
    }
}

fn program(rng: &mut Rng, nesting: usize) -> String {
    let clauses = 1 + rng.below(3);
    let mut out = String::new();
    for _ in 0..clauses {
        // Half the clauses carry a guard the index can use; the rest
        // are anything, equalities under `!` and `||` included.
        if rng.chance(50) {
            out.push_str(&format!("({}) && ", equality(rng)));
        }
        out.push_str(&format!("({})", test_expr(rng, 3)));
        match rng.below(if nesting == 0 { 8 } else { 10 }) {
            0 => {}
            1..=7 => out.push_str(&format!(" -> \"{}\"", rng.pick(&PERMS))),
            _ => out.push_str(&format!(" -> {{ {} }}", program(rng, nesting - 1))),
        }
        out.push_str("; ");
    }
    out
}

fn licensees(rng: &mut Rng, principals: &[String], depth: usize) -> String {
    let one = |rng: &mut Rng| format!("\"{}\"", principals[rng.below(principals.len())]);
    if depth == 0 || rng.chance(60) {
        return one(rng);
    }
    match rng.below(3) {
        0 => format!(
            "({} && {})",
            licensees(rng, principals, depth - 1),
            licensees(rng, principals, depth - 1)
        ),
        1 => format!(
            "({} || {})",
            licensees(rng, principals, depth - 1),
            licensees(rng, principals, depth - 1)
        ),
        _ => {
            let members = 2 + rng.below(3);
            let k = 1 + rng.below(members);
            let subs: Vec<String> = (0..members)
                .map(|_| licensees(rng, principals, depth - 1))
                .collect();
            format!("{k}-of({})", subs.join(", "))
        }
    }
}

struct World {
    keys: Vec<SigningKey>,
    /// Keys and two opaque names, as licensees write them.
    principals: Vec<String>,
}

impl World {
    fn new() -> World {
        let keys: Vec<SigningKey> = (1..=5u8).map(|i| SigningKey::from_seed(&[i; 32])).collect();
        let mut principals: Vec<String> = keys.iter().map(|k| key_principal(&k.public())).collect();
        principals.push("gateway".to_string());
        principals.push("auditor".to_string());
        World { keys, principals }
    }

    fn add_random_assertion(&self, rng: &mut Rng, session: &mut Session, policy: bool) {
        let mut builder =
            AssertionBuilder::new().licensees_expr(&licensees(rng, &self.principals, 2));
        if !rng.chance(8) {
            builder = builder.conditions(&program(rng, 2));
        }
        if policy {
            session
                .add_policy(&builder.policy())
                .expect("generated policies parse");
        } else {
            let issuer = &self.keys[rng.below(self.keys.len())];
            session
                .add_credential(&builder.sign(issuer))
                .expect("generated credentials parse and verify");
        }
    }

    fn describe_random_action(&self, rng: &mut Rng, session: &mut Session) {
        session.clear_attributes();
        for name in ["a", "b", "HANDLE", "app_domain", "n", "sel"] {
            // Absent, empty and set are all cases.
            if rng.chance(75) {
                session.set_attribute(name, rng.pick(&SETTINGS));
            }
        }
        session.clear_requesters();
        for _ in 0..1 + rng.below(3) {
            let name = &self.principals[rng.below(self.principals.len())];
            session.add_requester(Principal::parse(name).expect("generated principals parse"));
        }
    }
}

/// Queries `session` for a few random actions; returns how many
/// answers were above `_MIN_TRUST`.
fn compare(
    world: &World,
    rng: &mut Rng,
    session: &mut Session,
    actions: usize,
    seed: u64,
) -> usize {
    let mut granted = 0;
    for _ in 0..actions {
        world.describe_random_action(rng, session);
        let indexed = session.query().expect("session has a policy");
        let scanned = session.query_full_scan().expect("session has a policy");
        assert_eq!(
            indexed,
            scanned,
            "session seed {seed}: indexed query and full scan disagree over\n{}",
            dump(session)
        );
        granted += usize::from(!indexed.is_min());
    }
    granted
}

fn dump(session: &Session) -> String {
    session
        .credentials()
        .iter()
        .map(|a| a.raw().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn indexed_query_equals_full_scan_on_random_sessions() {
    const SESSIONS: u64 = 2000;
    let world = World::new();
    let (mut queries, mut granted) = (0, 0);
    for seed in 0..SESSIONS {
        let mut rng = Rng::new(0x5eed_0016_0000_0000 + seed);
        // 1-60 assertions, most sessions small: cycles and chains need
        // few, bucket pressure needs many.
        let size = if rng.chance(75) {
            1 + rng.below(12)
        } else {
            13 + rng.below(48)
        };
        let mut session = Session::new(&PERMS);
        world.add_random_assertion(&mut rng, &mut session, true);
        for _ in 1..size {
            let policy = rng.chance(15);
            world.add_random_assertion(&mut rng, &mut session, policy);
        }
        granted += compare(&world, &mut rng, &mut session, 4, seed);

        // Revocation shape: drop a third, then keep adding.
        let mut keep = Rng::new(rng.0.next_u64());
        session.retain_credentials(|_| !keep.chance(33));
        granted += compare(&world, &mut rng, &mut session, 2, seed);
        for _ in 0..rng.below(4) {
            world.add_random_assertion(&mut rng, &mut session, false);
        }
        granted += compare(&world, &mut rng, &mut session, 2, seed);
        queries += 8;
    }
    // The generator must not be vacuous: a fair share of the answers
    // carry authority.
    assert!(
        granted * 10 >= queries,
        "only {granted} of {queries} random queries granted anything"
    );
}

fn handle_credential(issuer: &SigningKey, holder: &SigningKey, handle: usize) -> String {
    AssertionBuilder::new()
        .licensee_key(&holder.public())
        .conditions(&format!(
            "(app_domain == \"DisCFS\") && (HANDLE == \"{handle}.1\") -> \"RWX\";"
        ))
        .sign(issuer)
}

/// The bound the index exists for: a session shaped like the
/// `meta_walk` owner's (root policy, one creator credential per handle)
/// evaluates the policy's program, the one credential that landed in
/// the shared `app_domain` bucket, and the handle's own.
#[test]
fn query_over_400_handle_credentials_evaluates_at_most_three_programs() {
    let server = SigningKey::from_seed(&[1; 32]);
    let owner = SigningKey::from_seed(&[2; 32]);
    let mut session = Session::new(&PERMS);
    session
        .add_policy(
            &AssertionBuilder::new()
                .licensee_key(&server.public())
                .conditions("app_domain == \"DisCFS\" -> \"RWX\";")
                .policy(),
        )
        .unwrap();
    for handle in 0..400 {
        session
            .add_credential(&handle_credential(&server, &owner, handle))
            .unwrap();
    }
    session.set_attribute("app_domain", "DisCFS");
    session.add_requester_key(&owner.public());
    for handle in [0, 1, 199, 399, 400] {
        session.set_attribute("HANDLE", &format!("{handle}.1"));
        PROGRAMS_EVALUATED.with(|n| n.set(0));
        let value = session.query().unwrap();
        let evaluated = PROGRAMS_EVALUATED.with(|n| n.get());
        assert_eq!(value.is_min(), handle == 400, "handle {handle}");
        assert_eq!(value, session.query_full_scan().unwrap());
        assert!(
            evaluated <= 3,
            "handle {handle}: {evaluated} programs evaluated"
        );
    }
}
