//! Unicode-unaware but fast tokenizer.
//!
//! Tokens are maximal runs of ASCII alphanumerics, lowercased. Everything
//! else (punctuation, whitespace, non-ASCII bytes) is a separator. This
//! matches how infobox-style knowledge-base text ("US$ 77 billion",
//! "O-R database") is usually broken into keywords.

/// Call `f` for each lowercased token of `text`, reusing one buffer.
pub fn for_each_token<F: FnMut(&str)>(text: &str, mut f: F) {
    let mut buf = String::with_capacity(16);
    for ch in text.chars() {
        if ch.is_ascii_alphanumeric() {
            buf.push(ch.to_ascii_lowercase());
        } else if !buf.is_empty() {
            f(&buf);
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(&buf);
    }
}

/// Collect the tokens of `text` into owned strings, in order, with
/// duplicates preserved.
pub fn tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(text, |t| out.push(t.to_string()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_splitting() {
        assert_eq!(tokens("SQL Server"), vec!["sql", "server"]);
        assert_eq!(tokens("US$ 77 billion"), vec!["us", "77", "billion"]);
        assert_eq!(tokens("O-R database"), vec!["o", "r", "database"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokens("").is_empty());
        assert!(tokens("--- !!! ...").is_empty());
    }

    #[test]
    fn lowercasing() {
        assert_eq!(tokens("Bill GATES"), vec!["bill", "gates"]);
    }

    #[test]
    fn non_ascii_is_separator() {
        assert_eq!(tokens("café"), vec!["caf"]);
        assert_eq!(tokens("naïve user"), vec!["na", "ve", "user"]);
    }

    #[test]
    fn duplicates_preserved() {
        assert_eq!(
            tokens("to be or not to be"),
            vec!["to", "be", "or", "not", "to", "be"]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every produced token is non-empty, lowercase alphanumeric.
        #[test]
        fn tokens_are_clean(s in ".{0,64}") {
            for t in tokens(&s) {
                prop_assert!(!t.is_empty());
                prop_assert!(t.chars().all(|c| c.is_ascii_alphanumeric() && !c.is_ascii_uppercase()));
            }
        }

        /// Tokenization is idempotent: tokenizing the join of tokens yields
        /// the same tokens.
        #[test]
        fn idempotent(s in "[ a-zA-Z0-9.,;-]{0,64}") {
            let first = tokens(&s);
            let joined = first.join(" ");
            prop_assert_eq!(tokens(&joined), first);
        }
    }
}
