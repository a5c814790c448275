//! Alone in its test binary on purpose: the intern pool's refusal
//! counters are process-wide, so asserting "exactly one" needs a process
//! in which no other test builds text values.

use mm_instance::intern::{refusal_counts, MAX_INTERN_LEN};
use mm_instance::Value;
use mm_repository::codec::{Decode, Encode, Reader, Writer};

#[test]
fn decoding_oversized_text_counts_one_refusal_and_round_trips() {
    let long = "z".repeat(MAX_INTERN_LEN + 1);
    let mut w = Writer::new();
    Value::Text(long.clone()).encode(&mut w);
    Value::Text("z".repeat(MAX_INTERN_LEN)).encode(&mut w);
    let bytes = w.finish();

    let before = refusal_counts();
    let mut r = Reader::new(bytes.clone());
    let refused = Value::decode(&mut r).expect("decode");
    let pooled = Value::decode(&mut r).expect("decode");
    let after = refusal_counts();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 0), "129 bytes refused, 128 pooled");
    assert!(matches!(&refused, Value::Text(s) if *s == long));
    assert!(matches!(pooled, Value::Sym(_)));

    let mut again = Writer::new();
    refused.encode(&mut again);
    pooled.encode(&mut again);
    assert_eq!(again.finish(), bytes, "refused text round-trips byte-identically");
}
