//! Quickstart: write a BonXai schema, validate a document, inspect the
//! matched rules, and compile the schema to XML Schema.
//!
//! Run with: `cargo run --example quickstart`

use bonxai::core::pipeline;
use bonxai::core::translate::TranslateOptions;
use bonxai::core::{BonxaiSchema, ValidateOptions};
use bonxai::xmltree;

fn main() {
    // A small recipe collection language. Note the priority rule at the
    // end: ingredient lists directly below a summary are plain text.
    let schema = BonxaiSchema::parse(
        r#"
        global { cookbook }
        grammar {
          cookbook = { (element recipe)+ }
          recipe   = { attribute name, element summary?, element ingredients,
                       (element step)+ }
          summary  = mixed { (element ingredients)? }
          ingredients = { (element item)* }
          item     = mixed { attribute amount? }
          step     = mixed { }
          summary/ingredients = mixed { }
          @amount  = { type xs:decimal }
        }
        constraints {
          key recipeName = //recipe { @name }
        }
        "#,
    )
    .expect("schema parses");

    let doc = xmltree::parse_document(
        r#"<cookbook>
             <recipe name="Bread">
               <summary>Classic loaf. <ingredients>flour, water, salt</ingredients></summary>
               <ingredients>
                 <item amount="500">flour</item>
                 <item amount="350">water</item>
                 <item>salt</item>
               </ingredients>
               <step>Mix.</step>
               <step>Bake.</step>
             </recipe>
           </cookbook>"#,
    )
    .expect("document parses");

    // Per-element rule matches are recorded only on request.
    let report = schema.validate_with(
        &doc,
        ValidateOptions {
            record_matches: true,
            ..Default::default()
        },
    );
    println!("document valid: {}", report.is_valid());

    // Matched-rule highlighting: which rule governs each element?
    println!("\nrelevant rule per element:");
    for node in doc.iter_elements() {
        let m = &report.structure.matches[&node];
        let rule = m
            .relevant
            .map(|i| {
                schema.ast.rules[schema.rule_source[i]]
                    .pattern
                    .source
                    .clone()
            })
            .unwrap_or_else(|| "(unconstrained)".to_owned());
        println!(
            "  <{}>{} ← {}",
            doc.name(node).unwrap(),
            " ".repeat(14usize.saturating_sub(doc.name(node).unwrap().len())),
            rule
        );
    }

    // Catching an error: a step outside a recipe.
    let bad = xmltree::parse_document(
        r#"<cookbook><recipe name="X"><ingredients/><step>only</step></recipe>
           <recipe name="X"><ingredients/><step>dup name</step></recipe></cookbook>"#,
    )
    .expect("parses");
    let report = schema.validate(&bad);
    println!("\nsecond document valid: {}", report.is_valid());
    for v in report.violations() {
        println!("  structural: {}", v.kind);
    }
    for v in &report.constraints {
        println!("  constraint: {v}");
    }

    // BonXai is a front-end for XML Schema: compile and print the XSD.
    let opts = TranslateOptions::default();
    let (xsd, path) = pipeline::bonxai_to_xsd(&schema, &opts);
    println!(
        "\ncompiled to an XSD with {} types via the {:?} path:",
        xsd.n_types(),
        path
    );
    println!("{}", bonxai::xsd::emit_xsd(&xsd, None).expect("emits"));
}
