//! Geography: countries, timezones, cities, streets, area codes.
//!
//! This is the backbone domain — the paper's running example (imputing
//! Copenhagen's timezone from its country) lives here. A curated core of
//! real cities keeps the paper's worked examples meaningful; a larger
//! generated tail gives experiments statistical weight.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::fact::{Fact, Predicate};
use crate::names;

/// A country with its dominant timezone and ISO-3166-alpha-3-style code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Country {
    /// Full English name.
    pub name: String,
    /// Dominant timezone name.
    pub timezone: String,
    /// Three-letter abbreviation.
    pub iso3: String,
    /// Continent name.
    pub continent: String,
}

/// A city with the attributes the benchmark tables use.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    /// City name.
    pub name: String,
    /// Index into [`GeoWorld::countries`].
    pub country: usize,
    /// Postal-code prefix (string to keep leading zeros).
    pub postal_prefix: String,
    /// Population.
    pub population: u64,
    /// Street names (with house-number ranges baked into instances).
    pub streets: Vec<String>,
    /// Telephone area code.
    pub area_code: u16,
}

/// The geographic slice of the synthetic world.
#[derive(Debug, Clone, Default)]
pub struct GeoWorld {
    /// All countries.
    pub countries: Vec<Country>,
    /// All cities.
    pub cities: Vec<City>,
}

const CURATED_COUNTRIES: &[(&str, &str, &str, &str)] = &[
    ("Denmark", "Central European Time", "DNK", "Europe"),
    ("Italy", "Central European Time", "ITA", "Europe"),
    ("Spain", "Central European Time", "ESP", "Europe"),
    ("Belgium", "Central European Time", "BEL", "Europe"),
    ("Germany", "Central European Time", "GER", "Europe"),
    ("France", "Central European Time", "FRA", "Europe"),
    ("Sweden", "Central European Time", "SWE", "Europe"),
    ("Greece", "Eastern European Time", "GRE", "Europe"),
    ("Finland", "Eastern European Time", "FIN", "Europe"),
    ("United Kingdom", "Greenwich Mean Time", "GBR", "Europe"),
    ("Ireland", "Greenwich Mean Time", "IRL", "Europe"),
    ("Portugal", "Western European Time", "PRT", "Europe"),
    ("Russia", "Moscow Standard Time", "RUS", "Europe"),
    (
        "United States",
        "Eastern Standard Time",
        "USA",
        "North America",
    ),
    ("Canada", "Eastern Standard Time", "CAN", "North America"),
    ("Mexico", "Central Standard Time", "MEX", "North America"),
    ("Brazil", "Brasilia Time", "BRA", "South America"),
    ("Argentina", "Argentina Time", "ARG", "South America"),
    ("Uruguay", "Uruguay Time", "URY", "South America"),
    ("China", "China Standard Time", "CHN", "Asia"),
    ("Japan", "Japan Standard Time", "JPN", "Asia"),
    ("India", "India Standard Time", "IND", "Asia"),
    ("South Korea", "Korea Standard Time", "KOR", "Asia"),
    ("Australia", "Australian Eastern Time", "AUS", "Oceania"),
    ("New Zealand", "New Zealand Time", "NZL", "Oceania"),
    ("Egypt", "Eastern European Time", "EGY", "Africa"),
    ("Nigeria", "West Africa Time", "NGA", "Africa"),
    ("Zambia", "Central Africa Time", "ZMB", "Africa"),
    ("Albania", "Central European Time", "ALB", "Europe"),
    ("Slovenia", "Central European Time", "SVN", "Europe"),
];

/// Curated cities: (name, country, postal prefix). US cities carry the
/// restaurant benchmark; European ones carry the imputation examples.
const CURATED_CITIES: &[(&str, &str, &str)] = &[
    ("Copenhagen", "Denmark", "10"),
    ("Florence", "Italy", "50"),
    ("Rome", "Italy", "00"),
    ("Alicante", "Spain", "03"),
    ("Madrid", "Spain", "28"),
    ("Antwerp", "Belgium", "20"),
    ("Athens", "Greece", "10"),
    ("Helsinki", "Finland", "00"),
    ("London", "United Kingdom", "EC"),
    ("Berlin", "Germany", "10"),
    ("Paris", "France", "75"),
    ("Stockholm", "Sweden", "11"),
    ("New York", "United States", "10"),
    ("Los Angeles", "United States", "90"),
    ("Beverly Hills", "United States", "90"),
    ("San Francisco", "United States", "94"),
    ("Atlanta", "United States", "30"),
    ("Chicago", "United States", "60"),
    ("Boston", "United States", "02"),
    ("Seattle", "United States", "98"),
    ("Toronto", "Canada", "M5"),
    ("Tokyo", "Japan", "10"),
    ("Shanghai", "China", "20"),
    ("Sydney", "Australia", "20"),
    ("Mumbai", "India", "40"),
];

impl GeoWorld {
    /// Generates the geography: curated core plus `extra_cities` synthetic
    /// cities distributed over the curated countries.
    pub fn generate<R: Rng>(rng: &mut R, extra_cities: usize) -> Self {
        let countries: Vec<Country> = CURATED_COUNTRIES
            .iter()
            .map(|&(name, tz, iso, cont)| Country {
                name: name.to_string(),
                timezone: tz.to_string(),
                iso3: iso.to_string(),
                continent: cont.to_string(),
            })
            .collect();

        let mut cities = Vec::new();
        let mut used_area_codes = std::collections::HashSet::new();
        let mut next_area = |rng: &mut R| -> u16 {
            loop {
                let code = rng.gen_range(201..989);
                if used_area_codes.insert(code) {
                    return code;
                }
            }
        };

        for &(name, country_name, postal) in CURATED_CITIES {
            let country = countries
                .iter()
                .position(|c| c.name == country_name)
                .expect("curated city references curated country");
            cities.push(City {
                name: name.to_string(),
                country,
                postal_prefix: postal.to_string(),
                population: rng.gen_range(80_000..9_000_000),
                streets: gen_streets(rng),
                area_code: next_area(rng),
            });
        }

        let mut seen_names: std::collections::HashSet<String> =
            cities.iter().map(|c| c.name.to_lowercase()).collect();
        while cities.len() < CURATED_CITIES.len() + extra_cities {
            let name = names::proper(rng);
            if !seen_names.insert(name.to_lowercase()) {
                continue;
            }
            let country = rng.gen_range(0..countries.len());
            cities.push(City {
                name,
                country,
                postal_prefix: format!("{:02}", rng.gen_range(0..99)),
                population: rng.gen_range(20_000..3_000_000),
                streets: gen_streets(rng),
                area_code: next_area(rng),
            });
        }

        GeoWorld { countries, cities }
    }

    /// The country of `city`.
    pub fn country_of(&self, city: &City) -> &Country {
        &self.countries[city.country]
    }

    /// Looks a city up by name (case-insensitive).
    pub fn city(&self, name: &str) -> Option<&City> {
        let key = name.to_lowercase();
        self.cities.iter().find(|c| c.name.to_lowercase() == key)
    }

    /// All facts this domain contributes to the world knowledge.
    pub fn facts(&self) -> Vec<Fact> {
        let mut out = Vec::new();
        for country in &self.countries {
            out.push(Fact::new(
                &country.name,
                Predicate::CountryTimezone,
                &country.timezone,
            ));
            out.push(Fact::new(
                &country.name,
                Predicate::CountryIso,
                &country.iso3,
            ));
            out.push(Fact::new(
                &country.name,
                Predicate::CountryContinent,
                &country.continent,
            ));
            out.push(Fact::new(&country.name, Predicate::ValidToken, "country"));
        }
        for city in &self.cities {
            let country = self.country_of(city);
            out.push(Fact::new(&city.name, Predicate::CityCountry, &country.name));
            out.push(Fact::new(
                &city.name,
                Predicate::CityTimezone,
                &country.timezone,
            ));
            out.push(Fact::new(
                &city.name,
                Predicate::CityPostal,
                &city.postal_prefix,
            ));
            out.push(Fact::new(&city.name, Predicate::ValidToken, "city"));
            out.push(Fact::new(
                city.area_code.to_string(),
                Predicate::AreaCodeCity,
                &city.name,
            ));
            for street in &city.streets {
                out.push(Fact::new(street, Predicate::StreetCity, &city.name));
            }
        }
        out
    }
}

fn gen_streets<R: Rng>(rng: &mut R) -> Vec<String> {
    let n = rng.gen_range(18..28);
    let mut streets = Vec::with_capacity(n);
    for _ in 0..n {
        streets.push(names::street_base(&names::street(rng)));
    }
    streets.dedup();
    streets
}

/// Picks a street address in `city`: "(number) (street base)".
pub fn address_in<R: Rng>(rng: &mut R, city: &City) -> String {
    let base = city
        .streets
        .choose(rng)
        .cloned()
        .unwrap_or_else(|| "Main St.".to_string());
    format!("{} {}", rng.gen_range(1..9999), base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> GeoWorld {
        let mut rng = StdRng::seed_from_u64(11);
        GeoWorld::generate(&mut rng, 100)
    }

    #[test]
    fn curated_cities_present() {
        let g = world();
        let copenhagen = g.city("copenhagen").expect("curated");
        assert_eq!(g.country_of(copenhagen).name, "Denmark");
        assert_eq!(g.country_of(copenhagen).timezone, "Central European Time");
    }

    #[test]
    fn deterministic_generation() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let ga = GeoWorld::generate(&mut a, 50);
        let gb = GeoWorld::generate(&mut b, 50);
        assert_eq!(ga.cities.len(), gb.cities.len());
        assert_eq!(ga.cities[30].name, gb.cities[30].name);
    }

    #[test]
    fn size_as_requested() {
        let g = world();
        assert_eq!(g.cities.len(), CURATED_CITIES.len() + 100);
    }

    #[test]
    fn unique_city_names_and_area_codes() {
        let g = world();
        let names: std::collections::HashSet<String> =
            g.cities.iter().map(|c| c.name.to_lowercase()).collect();
        assert_eq!(names.len(), g.cities.len());
        let codes: std::collections::HashSet<u16> = g.cities.iter().map(|c| c.area_code).collect();
        assert_eq!(codes.len(), g.cities.len());
    }

    #[test]
    fn facts_cover_cities_and_streets() {
        let g = world();
        let facts = g.facts();
        assert!(facts
            .iter()
            .any(|f| f.subject == "Copenhagen" && f.predicate == Predicate::CityTimezone));
        assert!(facts.iter().any(|f| f.predicate == Predicate::StreetCity));
        let iso = facts
            .iter()
            .find(|f| f.subject == "Germany" && f.predicate == Predicate::CountryIso)
            .unwrap();
        assert_eq!(iso.object, "GER");
    }

    #[test]
    fn address_in_city_uses_streets() {
        let g = world();
        let mut rng = StdRng::seed_from_u64(3);
        let city = &g.cities[0];
        let addr = address_in(&mut rng, city);
        let base = names::street_base(&addr);
        assert!(city.streets.contains(&base));
    }

    #[test]
    fn every_city_has_streets() {
        let g = world();
        assert!(g.cities.iter().all(|c| !c.streets.is_empty()));
    }
}
